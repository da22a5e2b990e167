"""Training loop tests: batching, loss accounting, determinism."""

import numpy as np
import pytest

from mwp.dataset import MwpRecord
from mwp.model.config import ModelConfig, TrainConfig
from mwp.model.network import init_parameters
from mwp.model.training import (
    evaluate_loss,
    pad_batch,
    prepare_pairs,
    train,
)
from mwp.preprocess import BOS_ID, EOS_ID, PAD_ID, UNK_ID, build_vocab, tokenize
from mwp.synth import generate_synthetic

SMALL = dict(d_model=16, n_heads=2, d_ff=32, n_encoder_layers=1, n_decoder_layers=1, max_len=32)


def make_pairs(n=8, seed=5):
    records = generate_synthetic(n, seed=seed)
    src_vocab = build_vocab([tokenize(r.problem_text) for r in records])
    tgt_vocab = build_vocab([tokenize(r.equation_text) for r in records])
    return prepare_pairs(records, src_vocab, tgt_vocab), src_vocab, tgt_vocab


# --- pair preparation ----------------------------------------------------------


def test_prepare_pairs_canonicalizes_targets():
    records = [
        MwpRecord(id="a", problem_text="৫ টি আম", equation_text="X=(7-3)", answer=None),
        MwpRecord(id="b", problem_text="৩ টি কলা", equation_text="x = ৭ + ৩", answer=None),
    ]
    src_vocab = build_vocab([tokenize(r.problem_text) for r in records])
    tgt_vocab = build_vocab([tokenize("x = 7 - 3 +") ])
    pairs = prepare_pairs(records, src_vocab, tgt_vocab)
    # Both raw equations land on the spaced ascii canonical form.
    ids_minus = [tgt_vocab.id_of(t) for t in ["x", "=", "7", "-", "3"]]
    ids_plus = [tgt_vocab.id_of(t) for t in ["x", "=", "7", "+", "3"]]
    assert pairs[0][1] == [BOS_ID, *ids_minus, EOS_ID]
    assert pairs[1][1] == [BOS_ID, *ids_plus, EOS_ID]


def test_prepare_pairs_source_has_no_bos_eos():
    pairs, src_vocab, _ = make_pairs(n=4)
    for src, _ in pairs:
        assert BOS_ID not in src
        assert EOS_ID not in src
        assert src  # never empty


def test_prepare_pairs_rejects_empty_problem():
    rec = MwpRecord(id="e", problem_text="   ", equation_text="x = 1 + 1", answer=None)
    vocab = build_vocab([tokenize("x = 1 + 1")])
    with pytest.raises(ValueError, match="'e'"):
        prepare_pairs([rec], vocab, vocab)


# --- batch packing -------------------------------------------------------------


def test_pad_batch_shapes_and_dtype():
    pairs = [([5, 6, 7], [BOS_ID, 8, 9, EOS_ID]), ([4], [BOS_ID, 8, EOS_ID])]
    src, tgt_in, tgt_out = pad_batch(pairs)
    assert src.shape == (2, 3) and src.dtype == np.int64
    assert tgt_in.shape == (2, 3) and tgt_out.shape == (2, 3)
    np.testing.assert_array_equal(src[1], [4, PAD_ID, PAD_ID])


def test_pad_batch_shifts_target_by_one():
    pairs = [([5], [BOS_ID, 8, 9, EOS_ID])]
    _, tgt_in, tgt_out = pad_batch(pairs)
    np.testing.assert_array_equal(tgt_in[0], [BOS_ID, 8, 9])
    np.testing.assert_array_equal(tgt_out[0], [8, 9, EOS_ID])


def test_pad_batch_pads_short_targets():
    pairs = [([5], [BOS_ID, 8, 9, EOS_ID]), ([6], [BOS_ID, EOS_ID])]
    _, tgt_in, tgt_out = pad_batch(pairs)
    np.testing.assert_array_equal(tgt_in[1], [BOS_ID, PAD_ID, PAD_ID])
    np.testing.assert_array_equal(tgt_out[1], [EOS_ID, PAD_ID, PAD_ID])


def test_pad_batch_rejects_empty():
    with pytest.raises(ValueError, match="empty batch"):
        pad_batch([])


# --- loss evaluation -----------------------------------------------------------


def test_evaluate_loss_independent_of_batch_size():
    pairs, src_vocab, tgt_vocab = make_pairs(n=6)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(0))
    whole = evaluate_loss(params, config, pairs, batch_size=64)
    one_by_one = evaluate_loss(params, config, pairs, batch_size=1)
    pairwise = evaluate_loss(params, config, pairs, batch_size=2)
    assert one_by_one == pytest.approx(whole, rel=1e-12)
    assert pairwise == pytest.approx(whole, rel=1e-12)


def test_evaluate_loss_rejects_empty():
    pairs, src_vocab, tgt_vocab = make_pairs(n=2)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one"):
        evaluate_loss(params, config, [])


# --- the training loop ---------------------------------------------------------


def test_zero_epochs_returns_params_unchanged():
    pairs, src_vocab, tgt_vocab = make_pairs(n=4)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(1))
    result = train(params, config, TrainConfig(epochs=0), pairs)
    assert result.history == []
    for key in params:
        np.testing.assert_array_equal(result.params[key], params[key])


def test_training_reduces_loss():
    pairs, src_vocab, tgt_vocab = make_pairs(n=8)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(2))
    tc = TrainConfig(batch_size=4, epochs=20, learning_rate=3e-3, seed=0)
    result = train(params, config, tc, pairs)
    assert len(result.history) == 20
    assert result.history[-1].train_loss < 0.5 * result.history[0].train_loss
    assert all(np.isfinite(s.train_loss) for s in result.history)


def test_history_carries_validation_loss():
    pairs, src_vocab, tgt_vocab = make_pairs(n=6)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(3))
    result = train(params, config, TrainConfig(epochs=2), pairs[:4], val_pairs=pairs[4:])
    assert all(s.val_loss is not None and np.isfinite(s.val_loss) for s in result.history)
    no_val = train(params, config, TrainConfig(epochs=1), pairs[:4])
    assert no_val.history[0].val_loss is None


def test_same_seed_is_bit_identical():
    # Dropout is on, so this also pins the mask stream to the train seed.
    pairs, src_vocab, tgt_vocab = make_pairs(n=8)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.1, **SMALL)
    params = init_parameters(config, np.random.default_rng(4))
    tc = TrainConfig(batch_size=4, epochs=3, seed=9)
    first = train(params, config, tc, pairs)
    second = train(params, config, tc, pairs)
    for key in first.params:
        np.testing.assert_array_equal(first.params[key], second.params[key])
    assert [s.train_loss for s in first.history] == [s.train_loss for s in second.history]


def test_different_seeds_diverge():
    pairs, src_vocab, tgt_vocab = make_pairs(n=8)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.1, **SMALL)
    params = init_parameters(config, np.random.default_rng(4))
    a = train(params, config, TrainConfig(batch_size=4, epochs=2, seed=0), pairs)
    b = train(params, config, TrainConfig(batch_size=4, epochs=2, seed=1), pairs)
    assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_gradient_clipping_path_runs():
    pairs, src_vocab, tgt_vocab = make_pairs(n=4)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(5))
    result = train(params, config, TrainConfig(epochs=2, clip_norm=0.05), pairs)
    assert all(np.isfinite(s.train_loss) for s in result.history)


def test_callback_sees_every_epoch():
    pairs, src_vocab, tgt_vocab = make_pairs(n=4)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(6))
    seen = []
    train(params, config, TrainConfig(epochs=3), pairs, callback=lambda s, p: seen.append(s.epoch))
    assert seen == [1, 2, 3]


def test_callback_params_equal_a_shorter_run():
    # the prefix property mwp grid relies on to score every epoch off one run
    pairs, src_vocab, tgt_vocab = make_pairs(n=4)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), **SMALL)
    params = init_parameters(config, np.random.default_rng(6))
    seen = {}
    train(params, config, TrainConfig(batch_size=2, epochs=3), pairs,
          callback=lambda s, p: seen.update({s.epoch: {k: v.copy() for k, v in p.items()}}))
    for epochs in (1, 2):
        shorter = train(params, config, TrainConfig(batch_size=2, epochs=epochs), pairs).params
        for key in shorter:
            np.testing.assert_array_equal(seen[epochs][key], shorter[key])


def test_empty_training_set_rejected():
    config = ModelConfig(src_vocab_size=8, tgt_vocab_size=8, dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(7))
    with pytest.raises(ValueError, match="at least one"):
        train(params, config, TrainConfig(epochs=1), [])


def test_infinite_validation_loss_stops_training():
    # UNK is never a training target, so its gradient is exactly zero and its
    # huge negative bias survives training; two UNK targets in a validation
    # pair then sum two log probabilities of about -1e308 to -inf.
    pairs, src_vocab, tgt_vocab = make_pairs(n=4)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(8))
    params["out.b"][UNK_ID] = -1e308
    val_pairs = [(pairs[0][0], [BOS_ID, UNK_ID, UNK_ID, EOS_ID])]
    seen = []
    with np.errstate(over="ignore"):
        assert np.isinf(evaluate_loss(params, config, val_pairs))
        with pytest.raises(RuntimeError, match="validation loss is inf at epoch 1"):
            train(params, config, TrainConfig(epochs=2), pairs, val_pairs, callback=lambda s, p: seen.append(s))
    assert seen == []


def test_train_leaves_input_params_untouched():
    # the optimizer updates its own copy in place
    pairs, src_vocab, tgt_vocab = make_pairs(n=4)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         dropout=0.0, **SMALL)
    params = init_parameters(config, np.random.default_rng(3))
    before = {k: p.copy() for k, p in params.items()}
    result = train(params, config, TrainConfig(batch_size=2, epochs=2, seed=0), pairs)
    for key in params:
        np.testing.assert_array_equal(params[key], before[key])
    assert any(not np.array_equal(result.params[key], before[key]) for key in params)

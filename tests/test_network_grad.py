"""Transformer forward/backward tests with a finite-difference oracle."""

import dataclasses
import math

import numpy as np
import pytest

from mwp.model.config import ModelConfig
from mwp.preprocess import PAD_ID
from mwp.model.network import (
    backward,
    cross_entropy_loss,
    decode_step,
    encode,
    forward,
    forward_with_tape,
    init_parameters,
    start_decoding,
)

TINY = ModelConfig(
    src_vocab_size=12,
    tgt_vocab_size=12,
    d_model=8,
    n_heads=2,
    d_ff=16,
    n_encoder_layers=1,
    n_decoder_layers=1,
    dropout=0.0,
    max_len=6,
)


def tiny_params(seed=0):
    return init_parameters(TINY, np.random.default_rng(seed))


SRC = np.array([[4, 5, 6, 7, 0], [8, 9, 4, 0, 0]])
TGT_IN = np.array([[1, 4, 5, 6], [1, 7, 8, 0]])
TGT_OUT = np.array([[4, 5, 6, 2], [7, 8, 2, 0]])


# --- initialization -----------------------------------------------------------


def test_init_shapes_and_finiteness():
    params = tiny_params()
    assert params["src_embed"].shape == (12, 8)
    assert params["enc0.att.w_q"].shape == (2, 8, 4)
    assert params["enc0.att.w_o"].shape == (8, 8)
    assert params["enc0.ff.w1"].shape == (8, 16)
    assert params["out.w"].shape == (8, 12)
    for key, value in params.items():
        assert np.all(np.isfinite(value)), key
    # biases start at zero, layer-norm gains at one
    assert np.all(params["enc0.ff.b1"] == 0.0)
    assert np.all(params["enc0.ln1.g"] == 1.0)
    assert np.all(params["enc0.ln1.b"] == 0.0)


def test_init_deterministic_per_seed():
    a, b = tiny_params(3), tiny_params(3)
    assert sorted(a) == sorted(b)
    for key in a:
        assert np.array_equal(a[key], b[key])


# --- forward ------------------------------------------------------------------


def test_forward_shape_and_determinism():
    params = tiny_params()
    logits = forward(params, TINY, SRC, TGT_IN)
    assert logits.shape == (2, 4, 12)
    again = forward(params, TINY, SRC, TGT_IN)
    assert np.array_equal(logits, again)


def test_forward_single_sequence_matches_batch():
    params = tiny_params()
    batch = forward(params, TINY, SRC, TGT_IN)
    single = forward(params, TINY, SRC[0], TGT_IN[0])
    assert single.shape == (4, 12)
    np.testing.assert_allclose(single, batch[0], atol=1e-12)


def test_forward_rejects_too_long():
    params = tiny_params()
    long_src = np.arange(4, 4 + TINY.max_len + 1)[None] % 12
    with pytest.raises(ValueError, match="max_len"):
        forward(params, TINY, long_src, TGT_IN[:1])


def test_causality_future_target_perturbation():
    params = tiny_params()
    base = forward(params, TINY, SRC[:1], TGT_IN[:1])
    for t in range(TGT_IN.shape[1] - 1):
        perturbed = TGT_IN[:1].copy()
        perturbed[0, t + 1 :] = (perturbed[0, t + 1 :] + 3) % 12
        logits = forward(params, TINY, SRC[:1], perturbed)
        assert np.array_equal(base[0, : t + 1], logits[0, : t + 1])


def test_padding_source_positions_are_inert():
    # PAD columns appended to the source leave the logits where they were
    params = tiny_params()
    longer = dataclasses.replace(TINY, max_len=10)  # no parameter depends on max_len
    padded = np.pad(SRC, ((0, 0), (0, longer.max_len - SRC.shape[1])), constant_values=PAD_ID)
    base = forward(params, TINY, SRC, TGT_IN)
    np.testing.assert_allclose(forward(params, longer, padded, TGT_IN), base, rtol=0, atol=1e-12)
    # and the encoder memory at pad positions does not affect decoding:
    memory, src_mask = encode(params, TINY, SRC)
    blasted = memory.copy()
    blasted[0, 4] = 1e6
    out_a = stepped_logits(params, memory, src_mask, TGT_IN)
    out_b = stepped_logits(params, blasted, src_mask, TGT_IN)
    np.testing.assert_allclose(out_a, out_b, atol=1e-9)


def stepped_logits(params, memory, src_mask, tgt_in, config=TINY):
    """Logits for ``tgt_in`` from a ``decode_step`` loop, one position per call."""
    cache = start_decoding(params, config, memory, src_mask)
    return np.stack([decode_step(params, config, cache, tgt_in[:, t]) for t in range(tgt_in.shape[1])], axis=1)


def test_decode_step_loop_matches_forward():
    # a PAD token inside the prefix is masked as a key by both paths
    params = tiny_params()
    tgt_in = np.array([[1, 4, PAD_ID, 6], [1, 7, 8, PAD_ID]])
    memory, src_mask = encode(params, TINY, SRC)
    np.testing.assert_allclose(stepped_logits(params, memory, src_mask, tgt_in), forward(params, TINY, SRC, tgt_in),
                               atol=1e-12)


def test_train_mode_requires_rng_when_dropout_on():
    config = ModelConfig(
        src_vocab_size=12,
        tgt_vocab_size=12,
        d_model=8,
        n_heads=2,
        d_ff=16,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.5,
        max_len=6,
    )
    params = init_parameters(config, np.random.default_rng(0))
    with pytest.raises(ValueError, match="rng"):
        forward_with_tape(params, config, SRC, TGT_IN, train=True)


def test_dropout_mean_preservation():
    # inverted dropout: E[output] = input; check the scaling on a big tensor
    config = ModelConfig(
        src_vocab_size=12,
        tgt_vocab_size=12,
        d_model=8,
        n_heads=2,
        d_ff=16,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.25,
        max_len=6,
    )
    from mwp.model.network import _dropout_fwd

    rng = np.random.default_rng(0)
    x = np.ones((100, 1000))
    tape = {}
    y = _dropout_fwd(x, 0.25, True, rng, tape, "d")
    kept = y != 0.0
    assert kept.mean() == pytest.approx(0.75, abs=0.02)
    assert y[kept].flat[0] == pytest.approx(1.0 / 0.75, abs=1e-12)
    assert y.mean() == pytest.approx(1.0, abs=0.02)


# --- cross entropy --------------------------------------------------------------


def test_ce_uniform_logits_is_log_vocab():
    logits = np.zeros((1, 3, 7))
    targets = np.array([[1, 2, 3]])
    assert cross_entropy_loss(logits, targets) == pytest.approx(math.log(7), abs=1e-12)


def test_ce_confident_correct_approaches_zero():
    logits = np.full((1, 2, 5), -50.0)
    logits[0, 0, 3] = 50.0
    logits[0, 1, 1] = 50.0
    targets = np.array([[3, 1]])
    assert cross_entropy_loss(logits, targets) == pytest.approx(0.0, abs=1e-12)


def test_ce_two_class_hand_case():
    # classes scored [0, ln 3]; true class 1 has probability 3/4
    logits = np.array([[[0.0, math.log(3.0)]]])
    targets = np.array([[1]])
    assert cross_entropy_loss(logits, targets) == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)


def test_ce_ignores_pad_positions():
    logits = np.zeros((1, 2, 4))
    logits[0, 1] = [100.0, 0.0, 0.0, 0.0]  # pad position: must not contribute
    with_pad = cross_entropy_loss(logits, np.array([[2, 0]]))
    assert with_pad == pytest.approx(math.log(4), abs=1e-12)


def test_ce_all_pad_rejected():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((1, 2, 4)), np.zeros((1, 2), dtype=int))


def test_ce_stable_for_large_logits():
    logits = np.array([[[0.0, 1e9]]])
    loss = cross_entropy_loss(logits, np.array([[1]]))
    assert loss == pytest.approx(0.0, abs=1e-9)


# --- gradients -------------------------------------------------------------------


def finite_difference_check(params, config, eps=1e-5, samples_per_tensor=3, dropout_seed=None):
    """The loss and the worst relative error of ``backward`` against central
    differences on a few coordinates of every parameter tensor. With a
    ``dropout_seed`` every evaluation trains with a fresh
    ``default_rng(dropout_seed)``, so all of them draw the same dropout masks."""
    train = dropout_seed is not None

    def masks():
        return np.random.default_rng(dropout_seed) if train else None

    def loss_at():
        return cross_entropy_loss(forward_with_tape(params, config, SRC, TGT_IN, train, masks())[0], TGT_OUT)

    loss, grads = backward(params, config, SRC, TGT_IN, TGT_OUT, train, masks())
    worst = 0.0
    rng = np.random.default_rng(99)
    for key in sorted(params):
        flat = params[key].reshape(-1)
        grad_flat = grads[key].reshape(-1)
        idxs = rng.choice(flat.size, size=min(samples_per_tensor, flat.size), replace=False)
        for idx in idxs:
            original = flat[idx]
            flat[idx] = original + eps
            up = loss_at()
            flat[idx] = original - eps
            down = loss_at()
            flat[idx] = original
            numeric = (up - down) / (2.0 * eps)
            analytic = grad_flat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, rel)
    return loss, worst


def test_gradients_match_finite_differences_sampled():
    params = tiny_params(1)
    loss, worst = finite_difference_check(params, TINY)
    assert loss > 0.0
    assert worst <= 1e-3, worst


# the shipped depth, 2 encoder and 2 decoder layers, at a tiny width: a
# gradient one layer drops on its way back shows only with a second layer
DEEP = dataclasses.replace(TINY, n_encoder_layers=2, n_decoder_layers=2)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_gradients_match_finite_differences_at_shipped_depth(dropout):
    config = dataclasses.replace(DEEP, dropout=dropout)
    params = init_parameters(config, np.random.default_rng(2))
    loss, worst = finite_difference_check(params, config, dropout_seed=7)
    assert loss > 0.0
    assert worst <= 1e-3, worst


def test_decode_step_loop_matches_forward_at_shipped_depth():
    # a padded source row, PAD tokens inside target prefixes, and a target
    # row that is all PAD after BOS
    params = init_parameters(DEEP, np.random.default_rng(3))
    src = np.vstack([SRC, [5, PAD_ID, PAD_ID, PAD_ID, PAD_ID]])
    tgt_in = np.array([[1, 4, PAD_ID, 6], [1, 7, 8, PAD_ID], [1, PAD_ID, PAD_ID, PAD_ID]])
    memory, src_mask = encode(params, DEEP, src)
    stepped = stepped_logits(params, memory, src_mask, tgt_in, DEEP)
    np.testing.assert_allclose(stepped, forward(params, DEEP, src, tgt_in), rtol=0, atol=1e-12)


def test_gradient_structure_matches_parameters():
    params = tiny_params()
    _, grads = backward(params, TINY, SRC, TGT_IN, TGT_OUT)
    assert sorted(grads) == sorted(params)
    for key in params:
        assert grads[key].shape == params[key].shape, key
        assert np.all(np.isfinite(grads[key])), key


def test_pad_target_positions_get_zero_embed_gradient():
    params = tiny_params()
    _, grads = backward(params, TINY, SRC, TGT_IN, TGT_OUT)
    # PAD row of the target embedding only receives gradient via its use at
    # tgt_in position (1,3); the pure-pad source row 10/11 ids never used:
    unused_src_ids = [i for i in range(12) if i not in set(SRC.flatten()) ]
    for i in unused_src_ids:
        assert np.all(grads["src_embed"][i] == 0.0)


def test_backward_loss_matches_forward_loss():
    params = tiny_params()
    loss, _ = backward(params, TINY, SRC, TGT_IN, TGT_OUT)
    direct = cross_entropy_loss(forward(params, TINY, SRC, TGT_IN), TGT_OUT)
    assert loss == pytest.approx(direct, abs=1e-12)

"""What the training tape holds and when backward lets it go.

``forward_with_tape`` records what ``backward`` reads, and ``backward``
takes each entry off the tape as it reads it. These tests pin the memory
side of that contract; ``test_network_grad.py`` pins the arithmetic.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mwp.model import network
from mwp.model.config import ModelConfig
from mwp.model.network import _dropout_bwd, _dropout_fwd, backward, forward, forward_with_tape, init_parameters

CONFIG = ModelConfig(
    src_vocab_size=20,
    tgt_vocab_size=16,
    d_model=32,
    n_heads=2,
    d_ff=64,
    n_encoder_layers=2,
    n_decoder_layers=2,
    dropout=0.1,
    max_len=32,
)
B, S, T = 16, 24, 12


def batch(seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(3, 20, (B, S)), rng.integers(3, 16, (B, T)), rng.integers(3, 16, (B, T))


def traced(fn):
    """``fn()``, the bytes still allocated when it returns and its peak."""
    tracemalloc.start()
    try:
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current, peak


def tape_bytes(config, src, tgt_in):
    params = init_parameters(config, np.random.default_rng(0))
    network.position_table(config.max_len, config.d_model)  # cached, so made before tracing
    _, held, _ = traced(lambda: forward_with_tape(params, config, src, tgt_in, train=True,
                                                  rng=np.random.default_rng(2)))
    return held


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_backward_empties_its_tape(dropout, monkeypatch):
    config = dataclasses.replace(CONFIG, dropout=dropout)
    params = init_parameters(config, np.random.default_rng(0))
    tapes = []
    real = network.forward_with_tape

    def capture(*args, **kwargs):
        logits, tape = real(*args, **kwargs)
        tapes.append(tape)
        return logits, tape

    monkeypatch.setattr(network, "forward_with_tape", capture)
    backward(params, config, *batch(), train=True, rng=np.random.default_rng(2))
    assert len(tapes) == 1 and tapes[0] == {}


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_bool_mask_dropout_has_the_float_mask_bytes(p):
    # the reference is the float-mask formula x * (keep / (1 - p))
    x = np.array([-3.5, -0.0, 0.0, 1e-300, 2.25, np.inf, -np.inf, np.nan, -1e300, 7.0] * 40).reshape(20, 20)
    tape = {}
    mask = (np.random.default_rng(5).random(x.shape) >= p) / (1.0 - p)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and 1e300 / (1 - p)
        assert _dropout_fwd(x, p, True, np.random.default_rng(5), tape, "d").tobytes() == (x * mask).tobytes()
        assert tape["d"][0].dtype == bool
        assert _dropout_bwd(x[::-1].copy(), tape, "d").tobytes() == (x[::-1] * mask).tobytes()
    assert tape == {}


def test_forward_has_the_bytes_of_the_taped_forward():
    params = init_parameters(CONFIG, np.random.default_rng(0))
    src, tgt_in, _ = batch()
    assert forward(params, CONFIG, src, tgt_in).tobytes() == forward_with_tape(params, CONFIG, src, tgt_in)[0].tobytes()


def test_tape_holds_bool_dropout_masks_and_one_feed_forward_activation():
    src, tgt_in, _ = batch()
    # dropout adds one bool mask per dropout site: the embeddings, and each
    # attention and feed-forward output; a float64 mask would be 8 bytes an entry
    sites = ((1 + 2 * CONFIG.n_encoder_layers) * B * S + (1 + 3 * CONFIG.n_decoder_layers) * B * T) * CONFIG.d_model
    masks = tape_bytes(CONFIG, src, tgt_in) - tape_bytes(dataclasses.replace(CONFIG, dropout=0.0), src, tgt_in)
    assert sites <= masks <= 1.5 * sites
    # a wider feed-forward layer adds its ReLU output to the tape, and nothing more
    wider = dataclasses.replace(CONFIG, d_ff=2 * CONFIG.d_ff)
    hidden = (CONFIG.n_encoder_layers * B * S + CONFIG.n_decoder_layers * B * T) * CONFIG.d_ff * 8
    grown = tape_bytes(wider, src, tgt_in) - tape_bytes(CONFIG, src, tgt_in)
    assert hidden <= grown <= 1.25 * hidden


def test_backward_frees_the_tape_as_it_goes():
    # backward's peak, forward included, stays near the full tape; with
    # every entry held until backward returns it reads about 1.5x the tape
    params = init_parameters(CONFIG, np.random.default_rng(0))
    src, tgt_in, tgt_out = batch()
    held = tape_bytes(CONFIG, src, tgt_in)
    backward(params, CONFIG, src, tgt_in, tgt_out, train=True, rng=np.random.default_rng(2))  # warm caches
    _, _, peak = traced(lambda: backward(params, CONFIG, src, tgt_in, tgt_out, train=True,
                                         rng=np.random.default_rng(2)))
    assert peak <= 1.3 * held

"""Attention tests: masking, scaling, heads, positions.

The scaled dot-product and multi-head checks run the production attention
core, ``network._attend`` and ``network._mha_fwd``.
"""

import math

import numpy as np
import pytest

from mwp.model.attention import causal_mask, masked_softmax, padding_mask, positional_encoding
from mwp.model.network import _attend, _mha_fwd

EVERY_KEY = np.ones((1, 1, 1, 1), dtype=bool)  # broadcasts to any score shape


def attend(q, k, v, mask=EVERY_KEY):
    """``_attend`` on one (T, d) head, by default with no key masked: its
    weights and its output before ``w_o``."""
    params = {"a.w_o": np.eye(v.shape[-1])}
    _, weights, heads = _attend(params, "a", q[None, None], k[None, None], v[None, None], mask)
    return weights[0, 0], heads[0]


def mha(query, key, value, w_q, w_k, w_v, w_o):
    """``_mha_fwd`` with no key masked: the output (B, T_q, D) and the
    per-head weights (B, H, T_q, T_k)."""
    params = {"m.w_q": w_q, "m.w_k": w_k, "m.w_v": w_v, "m.w_o": w_o}
    tape: dict = {}
    out = _mha_fwd(params, "m", query, key, value, EVERY_KEY, tape)
    return out, tape["m"][6]

# --- masked softmax ----------------------------------------------------------


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(3, 5, 7))
    w = masked_softmax(scores, np.ones_like(scores, dtype=bool))
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_masked_positions_get_zero_weight():
    scores = np.array([[5.0, 1.0, -2.0]])
    mask = np.array([[True, False, True]])
    w = masked_softmax(scores, mask)
    assert w[0, 1] == 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_fully_masked_row_is_all_zero():
    scores = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[False, False], [True, True]])
    w = masked_softmax(scores, mask)
    assert np.all(w[0] == 0.0)
    assert w[1].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(w))


def test_softmax_stable_for_huge_scores():
    w = masked_softmax(np.array([[1e9, 1e9 - 1.0]]), np.array([[True, True]]))
    assert np.all(np.isfinite(w))
    assert w[0, 0] > w[0, 1]


def test_softmax_ignores_masked_infinite_scores():
    scores = np.array([[0.0, 1e308, -1e308]])
    mask = np.array([[True, False, True]])
    w = masked_softmax(scores, mask)
    assert np.all(np.isfinite(w))
    assert w[0, 1] == 0.0


# --- scaled dot-product attention ---------------------------------------------


def test_single_key_returns_value_exactly():
    q = np.array([[0.3, -2.0, 5.0]])
    k = np.array([[1.0, 1.0, 1.0]])
    v = np.array([[7.0, 11.0, -3.0]])
    weights, output = attend(q, k, v)
    assert np.array_equal(weights, np.array([[1.0]]))
    assert np.array_equal(output, v)


def test_uniform_scores_give_column_mean():
    # q orthogonal to every key: all scores zero, weights uniform
    q = np.array([[0.0, 0.0, 1.0]])
    k = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 2.0, 0.0]])
    v = np.arange(12.0).reshape(3, 4)
    weights, output = attend(q, k, v)
    np.testing.assert_allclose(weights, np.full((1, 3), 1 / 3), atol=1e-12)
    np.testing.assert_allclose(output[0], v.mean(axis=0), atol=1e-12)


def test_two_key_case_against_scalar_computation():
    # scores are [1/sqrt(2), 0]; weights follow from a scalar softmax
    q = np.array([[1.0, 0.0]])
    k = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    weights, output = attend(q, k, v)
    s = 1.0 / math.sqrt(2.0)
    w0 = math.exp(s) / (math.exp(s) + 1.0)
    np.testing.assert_allclose(weights, [[w0, 1.0 - w0]], atol=1e-12)
    np.testing.assert_allclose(output, [[w0, 1.0 - w0]], atol=1e-12)


def test_scores_scale_by_inverse_sqrt_dk():
    rng = np.random.default_rng(1)
    for d_k in (4, 16):
        q = rng.normal(size=(1, d_k))
        k = rng.normal(size=(5, d_k))
        v = rng.normal(size=(5, 2))
        weights, _ = attend(q, k, v)
        manual = masked_softmax((q @ k.T) / math.sqrt(d_k), np.ones((1, 5), dtype=bool))
        np.testing.assert_allclose(weights, manual, atol=1e-12)


def test_score_variance_stable_under_dk_doubling():
    # with i.i.d. unit-variance Q,K the scaled scores keep variance ~1
    rng = np.random.default_rng(2)
    variances = []
    for d_k in (32, 64):
        q = rng.normal(size=(10000, d_k))
        k = rng.normal(size=(10000, d_k))
        scores = (q * k).sum(axis=1) / math.sqrt(d_k)
        variances.append(scores.var())
    assert variances[0] == pytest.approx(1.0, rel=0.2)
    assert variances[1] == pytest.approx(1.0, rel=0.2)
    assert variances[1] / variances[0] == pytest.approx(1.0, rel=0.2)


def test_attention_invariants_random_batch():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(2, 3, 6, 8))
    k = rng.normal(size=(2, 3, 5, 8))
    v = rng.normal(size=(2, 3, 5, 8))
    mask = rng.random(size=(2, 1, 6, 5)) > 0.3
    _, weights, _ = _attend({"a.w_o": np.eye(3 * 8)}, "a", q, k, v, mask)
    sums = weights.sum(axis=-1)
    allowed = np.broadcast_to(mask, weights.shape)
    live = allowed.any(axis=-1)
    np.testing.assert_allclose(sums[live], 1.0, atol=1e-9)
    assert np.all(weights[~allowed] <= 1e-12)


# --- multi-head attention -------------------------------------------------------


def test_single_head_identity_projections_reduce_to_scaled_dot():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 5, 4))
    eye = np.eye(4)[None]
    output, weights = mha(x, x, x, eye, eye, eye, np.eye(4))
    plain_weights, plain_output = attend(x[0], x[0], x[0])
    np.testing.assert_allclose(output[0], plain_output, atol=1e-12)
    np.testing.assert_allclose(weights[0, 0], plain_weights, atol=1e-12)


def test_two_heads_match_manual_concat():
    rng = np.random.default_rng(5)
    d_model, h, d_k = 6, 2, 3
    x = rng.normal(size=(1, 4, d_model))
    w_q = rng.normal(size=(h, d_model, d_k))
    w_k = rng.normal(size=(h, d_model, d_k))
    w_v = rng.normal(size=(h, d_model, d_k))
    w_o = rng.normal(size=(h * d_k, d_model))
    output, _ = mha(x, x, x, w_q, w_k, w_v, w_o)
    heads = []
    for i in range(h):
        _, head = attend(x[0] @ w_q[i], x[0] @ w_k[i], x[0] @ w_v[i])
        heads.append(head)
    manual = np.concatenate(heads, axis=-1) @ w_o
    np.testing.assert_allclose(output[0], manual, atol=1e-12)


def test_key_value_permutation_equivariance():
    rng = np.random.default_rng(6)
    d_model = 4
    q = rng.normal(size=(1, 3, d_model))
    kv = rng.normal(size=(1, 5, d_model))
    w = rng.normal(size=(1, d_model, d_model))
    w_o = rng.normal(size=(d_model, d_model))
    perm = np.array([4, 2, 0, 3, 1])
    base, _ = mha(q, kv, kv, w, w, w, w_o)
    shuffled, _ = mha(q, kv[:, perm], kv[:, perm], w, w, w, w_o)
    np.testing.assert_allclose(base, shuffled, atol=1e-12)


# --- positional encoding ----------------------------------------------------------


def test_positional_encoding_row_zero():
    pe = positional_encoding(4, 8)
    np.testing.assert_array_equal(pe[0, 0::2], 0.0)
    np.testing.assert_array_equal(pe[0, 1::2], 1.0)


def test_positional_encoding_known_entries():
    pe = positional_encoding(3, 4)
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert pe[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)
    assert pe[2, 2] == pytest.approx(math.sin(2.0 / 10000.0 ** (2.0 / 4.0)), abs=1e-12)
    assert pe[2, 3] == pytest.approx(math.cos(2.0 / 10000.0 ** (2.0 / 4.0)), abs=1e-12)


def test_positional_encoding_bounded():
    pe = positional_encoding(50, 16)
    assert np.all(pe <= 1.0) and np.all(pe >= -1.0)


def test_positional_encoding_rejects_bad_dims():
    with pytest.raises(ValueError):
        positional_encoding(0, 8)
    with pytest.raises(ValueError):
        positional_encoding(4, 7)


# --- masks ---------------------------------------------------------------------------


def test_causal_mask_small():
    assert causal_mask(1).tolist() == [[True]]
    assert causal_mask(3).tolist() == [
        [True, False, False],
        [True, True, False],
        [True, True, True],
    ]


def test_padding_mask_shape_and_values():
    mask = padding_mask(np.array([[5, 5, 0], [7, 0, 0]]), pad_id=0)
    assert mask.shape == (2, 1, 1, 3)
    assert mask[0, 0, 0].tolist() == [True, True, False]
    assert mask[1, 0, 0].tolist() == [True, False, False]

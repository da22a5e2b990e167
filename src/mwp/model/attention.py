"""Attention primitives: masked softmax and its gradient, log-softmax, the
sinusoidal position table, and causal and padding masks.

The attention core itself (scaled dot-product over projected heads, then the
output projection) lives in ``network._attend``, shared by training and
decoding. All arrays are float64 and batch-first. Masks are boolean with
True meaning "may attend"; they broadcast against the score shape. A row
whose mask is all False gets all-zero weights, and so an all-zero attention
output, rather than NaN, so padding-only rows stay inert through the rest
of the network.
"""

from __future__ import annotations

import numpy as np


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, restricted to positions where mask is True."""
    allowed = np.broadcast_to(np.asarray(mask, dtype=bool), scores.shape)
    row_max = np.where(allowed, scores, -np.inf).max(axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    e = np.where(allowed, np.exp(np.where(allowed, scores, 0.0) - row_max), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log probabilities along the last axis, each row on its own."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_backward(d_weights: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient through (masked) softmax given weights from the forward pass."""
    inner = (d_weights * weights).sum(axis=-1, keepdims=True)
    return weights * (d_weights - inner)


def positional_encoding(max_len: int, d_model: int) -> np.ndarray:
    """Sinusoidal position table (max_len, d_model): sin on even dims, cos on odd."""
    if max_len < 1 or d_model < 1:
        raise ValueError("max_len and d_model must be positive")
    if d_model % 2:
        raise ValueError("d_model must be even")
    position = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angles = position / np.power(10000.0, 2.0 * np.floor(dim / 2.0) / d_model)
    table = np.empty((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table


def causal_mask(size: int) -> np.ndarray:
    """(size, size) bool mask where position t may attend to positions <= t."""
    return np.tril(np.ones((size, size), dtype=bool))


def padding_mask(ids: np.ndarray, pad_id: int) -> np.ndarray:
    """(B, 1, 1, T) bool mask that hides PAD key positions from every query."""
    ids = np.asarray(ids)
    return (ids != pad_id)[:, None, None, :]

"""Teacher-forced training loop with deterministic batching.

All randomness (epoch shuffles and dropout masks) is drawn from a single
PCG64 generator seeded from the train config, so two runs with the same seed
and data produce bit-identical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..equation import parse_equation, to_canonical_string
from ..preprocess import PAD_ID, Vocab, encode, tokenize
from .config import ModelConfig, TrainConfig
from .network import Parameters, backward, cross_entropy_loss, forward_with_tape
from .optim import adam_scratch, adam_update, clip_gradients, init_adam

Pair = tuple[list[int], list[int]]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None


@dataclass
class TrainResult:
    params: Parameters
    history: list[EpochStats] = field(default_factory=list)


def prepare_pairs(records: Sequence, src_vocab: Vocab, tgt_vocab: Vocab) -> list[Pair]:
    """Encode records into (source ids, target ids) pairs.

    The source is the tokenized problem text; the target is the canonical
    form of the gold equation wrapped in BOS/EOS. Canonicalizing the target
    makes the supervision insensitive to formatting quirks in the data.
    """
    pairs: list[Pair] = []
    for rec in records:
        canonical = to_canonical_string(parse_equation(rec.equation_text))
        src = encode(tokenize(rec.problem_text), src_vocab)
        tgt = encode(tokenize(canonical), tgt_vocab, add_bos_eos=True)
        if not src:
            raise ValueError(f"record {rec.id!r} has an empty problem after tokenization")
        pairs.append((src, tgt))
    return pairs


def pad_batch(pairs: Sequence[Pair], pad_id: int = PAD_ID) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack pairs into (src, tgt_in, tgt_out) int arrays padded with pad_id."""
    if not pairs:
        raise ValueError("cannot pack an empty batch")
    src_len = max(len(s) for s, _ in pairs)
    tgt_len = max(len(t) for _, t in pairs) - 1
    if tgt_len < 1:
        raise ValueError("target sequences must have at least two tokens (BOS + EOS)")
    src = np.full((len(pairs), src_len), pad_id, dtype=np.int64)
    tgt_in = np.full((len(pairs), tgt_len), pad_id, dtype=np.int64)
    tgt_out = np.full((len(pairs), tgt_len), pad_id, dtype=np.int64)
    for row, (s, t) in enumerate(pairs):
        src[row, : len(s)] = s
        tgt_in[row, : len(t) - 1] = t[:-1]
        tgt_out[row, : len(t) - 1] = t[1:]
    return src, tgt_in, tgt_out


def _epoch_batches(pairs: Sequence[Pair], order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        chunk = [pairs[i] for i in order[start : start + batch_size]]
        yield pad_batch(chunk)


def evaluate_loss(
    params: Parameters,
    config: ModelConfig,
    pairs: Sequence[Pair],
    batch_size: int = 32,
    pad_id: int = PAD_ID,
) -> float:
    """Token-weighted mean cross entropy over pairs, without dropout."""
    if not pairs:
        raise ValueError("evaluate_loss needs at least one pair")
    total, tokens = 0.0, 0
    order = np.arange(len(pairs))
    for src, tgt_in, tgt_out in _epoch_batches(pairs, order, batch_size):
        logits, _ = forward_with_tape(params, config, src, tgt_in, pad_id=pad_id, train=False)
        n = int((tgt_out != pad_id).sum())
        total += cross_entropy_loss(logits, tgt_out, pad_id) * n
        tokens += n
    return total / tokens


def train(
    params: Parameters,
    config: ModelConfig,
    train_config: TrainConfig,
    train_pairs: Sequence[Pair],
    val_pairs: Sequence[Pair] | None = None,
    callback: Callable[[EpochStats, Parameters], None] | None = None,
) -> TrainResult:
    """Run Adam over shuffled minibatches for the configured epoch count.

    Returns the final parameters and per-epoch loss history; the input
    parameters are never modified. With epochs=0 they come back as they
    are and the history is empty. A non-finite training loss, non-finite
    parameters at the end of an epoch, or a non-finite validation loss
    raise ``RuntimeError`` naming the epoch. ``callback(stats, params)`` runs
    after each epoch's checks pass, with the live parameters: training goes on
    updating those arrays in place, so the callback must neither keep nor
    change them.
    """
    if not train_pairs:
        raise ValueError("train needs at least one training pair")
    rng = np.random.default_rng(train_config.seed)
    if train_config.epochs:  # updated in place from here on, so never the caller's arrays
        params = {k: p.copy() for k, p in params.items()}
    state = init_adam(params)
    scratch = adam_scratch(params)
    history: list[EpochStats] = []
    pad_id = PAD_ID
    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(len(train_pairs))
        total, tokens = 0.0, 0
        batches = _epoch_batches(train_pairs, order, train_config.batch_size)
        for step, (src, tgt_in, tgt_out) in enumerate(batches, start=1):
            loss, grads = backward(params, config, src, tgt_in, tgt_out, pad_id=pad_id, train=True, rng=rng)
            if not math.isfinite(loss):
                raise RuntimeError(f"training loss is {loss} at epoch {epoch}, step {step}")
            if train_config.clip_norm is not None:
                grads, _ = clip_gradients(grads, train_config.clip_norm)
            adam_update(params, grads, state, train_config, scratch)
            n = int((tgt_out != pad_id).sum())
            total += loss * n
            tokens += n
        if not all(np.isfinite(p).all() for p in params.values()):
            raise RuntimeError(f"parameters are not finite after epoch {epoch}, step {step}")
        val_loss = None
        if val_pairs:
            val_loss = evaluate_loss(params, config, val_pairs, batch_size=train_config.batch_size, pad_id=pad_id)
            if not math.isfinite(val_loss):
                raise RuntimeError(f"validation loss is {val_loss} at epoch {epoch}")
        stats = EpochStats(epoch=epoch, train_loss=total / tokens, val_loss=val_loss)
        history.append(stats)
        if callback is not None:
            callback(stats, params)
    return TrainResult(params=params, history=history)

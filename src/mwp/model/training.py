"""Teacher-forced training loop with deterministic batching.

All randomness (epoch shuffles and dropout masks) is drawn from a single
PCG64 generator seeded from the train config, so two runs with the same seed
and data produce bit-identical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..dataset import DatasetError, MwpRecord, gold_equation
from ..equation import to_canonical_string
from ..preprocess import PAD_ID, Vocab, encode, tokenize
from .config import ModelConfig, TrainConfig
from .network import Parameters, backward, cross_entropy_loss, forward, pad_rows
from .optim import adam_scratch, adam_update, clip_gradients, init_adam

Pair = tuple[list[int], list[int]]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None


def target_tokens(rec: MwpRecord) -> list[str]:
    """Tokens of the canonical form of the record's gold equation: its
    ``split()``. Canonicalizing the target makes the supervision insensitive
    to formatting quirks in the data."""
    return to_canonical_string(gold_equation(rec)).split()


def source_ids(rec: MwpRecord, src_vocab: Vocab) -> list[int]:
    """Ids of the tokenized problem text; an empty one is a data error."""
    src = encode(tokenize(rec.problem_text), src_vocab)
    if not src:
        raise DatasetError(f"record {rec.id!r} has an empty problem after tokenization")
    return src


def prepare_pairs(records: Sequence[MwpRecord], src_vocab: Vocab, tgt_vocab: Vocab) -> list[Pair]:
    """Encode records into (source ids, target ids) pairs: the
    :func:`source_ids` and the :func:`target_tokens` wrapped in BOS/EOS."""
    pairs: list[Pair] = []
    for rec in records:
        tgt = encode(target_tokens(rec), tgt_vocab, add_bos_eos=True)
        pairs.append((source_ids(rec, src_vocab), tgt))
    return pairs


def pad_batch(pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack pairs into (src, tgt_in, tgt_out) int arrays padded with PAD."""
    if not pairs:
        raise ValueError("cannot pack an empty batch")
    if max(len(t) for _, t in pairs) < 2:
        raise ValueError("target sequences must have at least two tokens (BOS + EOS)")
    return pad_rows([s for s, _ in pairs]), pad_rows([t[:-1] for _, t in pairs]), pad_rows([t[1:] for _, t in pairs])


def _epoch_batches(pairs: Sequence[Pair], order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        chunk = [pairs[i] for i in order[start : start + batch_size]]
        yield pad_batch(chunk)


def evaluate_loss(params: Parameters, config: ModelConfig, pairs: Sequence[Pair], batch_size: int = 32) -> float:
    """Token-weighted mean cross entropy over pairs, without dropout or a tape."""
    if not pairs:
        raise ValueError("evaluate_loss needs at least one pair")
    total, tokens = 0.0, 0
    order = np.arange(len(pairs))
    for src, tgt_in, tgt_out in _epoch_batches(pairs, order, batch_size):
        logits = forward(params, config, src, tgt_in)
        n = int((tgt_out != PAD_ID).sum())
        total += cross_entropy_loss(logits, tgt_out) * n
        tokens += n
    return total / tokens


def train(
    params: Parameters,
    config: ModelConfig,
    train_config: TrainConfig,
    train_pairs: Sequence[Pair],
    val_pairs: Sequence[Pair] | None = None,
    callback: Callable[[EpochStats, Parameters], None] | None = None,
) -> Parameters:
    """Run Adam over shuffled minibatches for the configured epoch count.

    Returns the final parameters; the input parameters are never modified.
    With epochs=0 they come back as they are. A non-finite training loss,
    non-finite parameters at the end of an epoch, or a non-finite validation
    loss raise ``RuntimeError`` naming the epoch. ``callback(stats, params)``
    runs after each epoch's checks pass, with that epoch's ``EpochStats`` and
    the live parameters: training goes on updating those arrays in place, so
    the callback must neither keep nor change them.
    """
    if not train_pairs:
        raise ValueError("train needs at least one training pair")
    if not train_config.epochs:
        return params
    rng = np.random.default_rng(train_config.seed)
    params = {k: p.copy() for k, p in params.items()}  # updated in place, so never the caller's arrays
    state = init_adam(params)
    scratch = adam_scratch(params)
    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(len(train_pairs))
        total, tokens = 0.0, 0
        batches = _epoch_batches(train_pairs, order, train_config.batch_size)
        for step, (src, tgt_in, tgt_out) in enumerate(batches, start=1):
            loss, grads = backward(params, config, src, tgt_in, tgt_out, train=True, rng=rng)
            if not math.isfinite(loss):
                raise RuntimeError(f"training loss is {loss} at epoch {epoch}, step {step}")
            if train_config.clip_norm is not None:
                grads, _ = clip_gradients(grads, train_config.clip_norm)
            adam_update(params, grads, state, train_config, scratch)
            n = int((tgt_out != PAD_ID).sum())
            total += loss * n
            tokens += n
        if not all(np.isfinite(p).all() for p in params.values()):
            raise RuntimeError(f"parameters are not finite after epoch {epoch}, step {step}")
        val_loss = None
        if val_pairs:
            val_loss = evaluate_loss(params, config, val_pairs, batch_size=train_config.batch_size)
            if not math.isfinite(val_loss):
                raise RuntimeError(f"validation loss is {val_loss} at epoch {epoch}")
        stats = EpochStats(epoch=epoch, train_loss=total / tokens, val_loss=val_loss)
        if callback is not None:
            callback(stats, params)
    return params

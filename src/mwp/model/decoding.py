"""Beam-search decoding with a key/value cache; greedy is beam width 1.

Each source is encoded once. Every decoding step then feeds one new token
per sequence through ``decode_step``, which appends that position's
self-attention keys and values to a cache and attends to cross-attention
keys and values projected once per source, so no step re-runs the decoder
over the prefix.

``beam_decode_batch`` takes a list of sources and decodes them in
length-sorted chunks of ``CHUNK_ROWS`` (32) rows, so a chunk pads little;
padded source positions are masked. That is 32 records per chunk at width
1 and 8 at width 4. A chunk is padded once and encoded ``ENCODE_ROWS`` (8)
records at a time, which gives the same bits as one call while the
encoder's feed-forward transient stays that of 8 rows. A chunk's cache is
freed before the next one is built, so one cache is alive at a time.

The live hypotheses of every record share one step, each gathering its
self-attention cache row from its parent, while all of a record's
hypotheses share its one copy of the cross-attention keys and values. A
step that keeps every row in order copies nothing. A record's rows leave
the cache once all of its beams have finished. The memory peak is
``DecoderCache.select`` copying every live row's self-attention keys and
values while the old cache is still alive, so larger chunks raise the
process's peak. One log-softmax and one stable sort per step rank the
next tokens of every live row; each record then keeps its own best
hypotheses.

``beam_decode`` is beam search over one source. Returned ids exclude BOS
and EOS and come back in input order. Equal scores rank by token tuple,
so decoding is fully deterministic: a tie goes to the smaller token id,
except that ending with EOS wins it, and width 1 takes the argmax at each
step. A step whose logits are not all finite raises ``ValueError``: the
weights overflow, so no prediction from them means anything. The PAD, BOS
and EOS ids are the ones ``mwp.preprocess`` reserves.
"""

from __future__ import annotations

import numpy as np

from ..preprocess import BOS_ID, EOS_ID
from .attention import log_softmax
from .config import ModelConfig
from .network import Parameters, decode_step, encode, pad_rows, start_decoding

CHUNK_ROWS = 32  # rows per chunk: CHUNK_ROWS // beam_size records, at least one
ENCODE_ROWS = 8  # records per encoder call: its feed-forward hidden layer is the largest transient

# beam hypothesis: (token tuple starting with BOS, summed logprob, finished,
# cache row of the live parent it grew from); cache row r holds the r-th live
# hypothesis of the step, whose last token is that step's input
Hypothesis = tuple[tuple[int, ...], float, bool, int]


def _finite(logits: np.ndarray, step: int) -> np.ndarray:
    """``logits``, unless some are not finite: then the weights overflow."""
    if not np.isfinite(logits).all():
        raise ValueError(f"decoding step {step} gave non-finite logits; the model weights overflow")
    return logits


def _one_source(src_ids) -> np.ndarray:
    src = np.atleast_2d(np.asarray(src_ids, dtype=np.int64))
    if src.shape[0] != 1:
        raise ValueError(f"expected one source sequence, got a batch of {src.shape[0]}")
    return src[0]


def _encoded_chunks(params: Parameters, config: ModelConfig, sources, chunk_size: int):
    """Source indices and a fresh decoder cache, one row per record, for
    each chunk of ``chunk_size`` records in order of source length."""
    sources = [np.asarray(s, dtype=np.int64).reshape(-1) for s in sources]
    if any(len(s) == 0 for s in sources):
        raise ValueError("src_ids has zero time steps")
    order = sorted(range(len(sources)), key=lambda i: len(sources[i]))
    for start in range(0, len(order), chunk_size):
        chunk = order[start : start + chunk_size]
        src = pad_rows([sources[i] for i in chunk])
        # no local holds the cache, so it dies with the caller's last reference
        yield chunk, start_decoding(params, config, *_encode_in_slices(params, config, src))


def _encode_in_slices(params: Parameters, config: ModelConfig, src: np.ndarray):
    """``encode`` of a padded batch, run ``ENCODE_ROWS`` rows at a time: the
    same bits, while the feed-forward transient stays that of a few rows."""
    parts = [encode(params, config, src[r : r + ENCODE_ROWS]) for r in range(0, len(src), ENCODE_ROWS)]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _final_score(h: Hypothesis) -> float:
    # unfinished survivors count their generated tokens; finished ones also
    # paid for EOS, so normalize by generated length including EOS
    generated = len(h[0]) - 1 + (1 if h[2] else 0)
    return h[1] / max(generated, 1)


def beam_decode_batch(
    params: Parameters,
    config: ModelConfig,
    sources,
    beam_size: int = 4,
    max_steps: int | None = None,
) -> list[list[int]]:
    """Beam-search ids for each source, in input order; see ``beam_decode``."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    limit = config.max_len - 1 if max_steps is None else max_steps
    sources = list(sources)
    results: list[list[int]] = [[] for _ in sources]
    for chunk, cache in _encoded_chunks(params, config, sources, max(1, CHUNK_ROWS // beam_size)):
        beams: list[list[Hypothesis]] = [[((BOS_ID,), 0.0, False, row)] for row in range(len(chunk))]
        for step in range(1, limit + 1):
            # a record whose beams have all finished has no live rows left
            lives = [[h for h in record if not h[2]] for record in beams]
            rows = [h for live in lives for h in live]
            if not rows:
                break
            cache = cache.select([h[3] for h in rows])
            logits = decode_step(params, config, cache, [h[0][-1] for h in rows])
            logp = log_softmax(_finite(logits, step))
            top = np.argsort(-logp, axis=-1, kind="stable")[:, : beam_size + 1]
            top_logp = np.take_along_axis(logp, top, axis=-1).tolist()
            top = top.tolist()
            row = 0
            for r, live in enumerate(lives):
                if not live:
                    continue
                candidates = [h for h in beams[r] if h[2]]
                for tokens, score, _, _ in live:
                    for token, token_logp in zip(top[row], top_logp[row]):
                        if token == EOS_ID:
                            candidates.append((tokens, score + token_logp, True, row))
                        else:
                            candidates.append((tokens + (token,), score + token_logp, False, row))
                    row += 1
                candidates.sort(key=lambda h: (-h[1], h[0]))
                beams[r] = candidates[:beam_size]
        for i, record in zip(chunk, beams):
            results[i] = list(min(record, key=lambda h: (-_final_score(h), h[0]))[0][1:])
        del cache  # before the next chunk's cache is built
    return results


def beam_decode(
    params: Parameters,
    config: ModelConfig,
    src_ids,
    beam_size: int = 4,
    max_steps: int | None = None,
) -> list[int]:
    """Length-normalized beam search; returns the best token sequence.

    Hypotheses are scored by summed log probability during the search and by
    mean log probability per generated token (EOS included) for the final
    ranking, which keeps short and long candidates comparable.
    """
    return beam_decode_batch(params, config, [_one_source(src_ids)], beam_size, max_steps)[0]

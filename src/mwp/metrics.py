"""BLEU and solution accuracy for predicted equations.

Two complementary scores: BLEU measures surface n-gram overlap between the
predicted and reference token sequences, while solution accuracy parses and
solves both equations and compares the numeric results. The two deliberately
disagree on predictions that are mathematically right but reordered.

BLEU conventions used here:

* ``sentence_bleu`` returns a value in [0, 1] and applies add-one smoothing
  to the n >= 2 precisions, so single-sentence scores are never zero merely
  because one higher-order count is empty.
* ``corpus_bleu`` returns the conventional 0..100 scale from micro-averaged
  (pooled) counts with no smoothing; the brevity penalty uses total lengths.

``evaluate_corpus`` is the one scorer of predictions against records. It
returns the report as a dict: ``corpus_bleu``, ``solution_accuracy``,
``n_records``, one dict per record under ``per_record`` and an empty
``metadata``, the layout ``mwp eval`` writes to ``report.json``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

from . import equation
from .dataset import gold_equation
from .preprocess import tokenize

CORRECT, WRONG, UNPARSEABLE = "correct", "wrong", "unparseable"


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    if cand_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def _match_counts(candidate: Sequence[str], reference: Sequence[str], max_n: int) -> list[tuple[int, int]]:
    """Clipped matches and candidate n-gram totals for n = 1..max_n."""
    counts = []
    for n in range(1, max_n + 1):
        cand = Counter(tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1))
        ref = Counter(tuple(reference[i : i + n]) for i in range(len(reference) - n + 1))
        counts.append((sum(min(count, ref[gram]) for gram, count in cand.items()), sum(cand.values())))
    return counts


def _sentence_bleu_from_counts(counts: list[tuple[int, int]], cand_len: int, ref_len: int) -> float:
    log_sum = 0.0
    for n, (matches, total) in enumerate(counts, 1):
        if n == 1:
            if matches == 0:
                return 0.0
            p = matches / total
        else:
            p = (matches + 1) / (total + 1)
        log_sum += math.log(p)
    return _brevity_penalty(cand_len, ref_len) * math.exp(log_sum / len(counts))


def _corpus_bleu_from_counts(tallies: Sequence[tuple[list[tuple[int, int]], int, int]], max_n: int) -> float:
    """Corpus BLEU from per-pair (counts, candidate length, reference length)."""
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = ref_len = 0
    for counts, c_len, r_len in tallies:
        cand_len += c_len
        ref_len += r_len
        for n, (m, t) in enumerate(counts):
            matches[n] += m
            totals[n] += t
    log_sum = 0.0
    orders = 0
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
        orders += 1
    if orders == 0:
        return 0.0
    return 100.0 * _brevity_penalty(cand_len, ref_len) * math.exp(log_sum / orders)


def sentence_bleu(candidate: Sequence[str], reference: Sequence[str], max_n: int = 4) -> float:
    """Smoothed sentence-level BLEU in [0, 1].

    Geometric mean of modified n-gram precisions for n = 1..max_n; the
    unigram precision is unsmoothed (no overlap or an empty candidate scores
    zero) and the higher orders get add-one smoothing, times the brevity
    penalty.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    return _sentence_bleu_from_counts(_match_counts(candidate, reference, max_n), len(candidate), len(reference))


def corpus_bleu(pairs: Sequence[tuple[Sequence[str], Sequence[str]]], max_n: int = 4) -> float:
    """Corpus BLEU on the 0..100 scale with pooled, unsmoothed counts.

    N-gram orders for which the whole corpus has no candidate n-grams are
    excluded from the geometric mean (short sentences would otherwise zero
    out identical corpora).
    """
    if not pairs:
        raise ValueError("corpus_bleu needs at least one pair")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    tallies = [(_match_counts(c, r, max_n), len(c), len(r)) for c, r in pairs]
    return _corpus_bleu_from_counts(tallies, max_n)


# --- solution accuracy and the corpus report ----------------------------------


def _judge(predicted: str, ref_value: Fraction, tol: Fraction) -> tuple[str, equation.Equation | None, Fraction | None]:
    """Parse a prediction once: its verdict, parsed equation and value.

    A prediction that parses but divides by zero is ``unparseable`` and
    keeps its parsed equation.
    """
    try:
        parsed = equation.parse_equation(predicted)
    except equation.ParseError:
        return UNPARSEABLE, None, None
    try:
        value = equation.solve(parsed)
    except equation.DivisionByZero:
        return UNPARSEABLE, parsed, None
    return (CORRECT if abs(value - ref_value) <= tol else WRONG), parsed, value


class _Report(dict):
    # bench/spans.py counts a traced call's records as ``result.n_records``
    n_records = property(lambda self: self["n_records"])


def evaluate_corpus(
    predictions: Sequence[str],
    records: Sequence,
    tolerance: Fraction | int | str = 0,
    max_n: int = 4,
) -> dict:
    """Score one prediction string per record; return the report dict.

    A prediction is ``correct`` when it solves to within ``tolerance`` of
    its record's gold equation (exact rational equality at 0, the default),
    ``wrong`` when it solves to another value, and ``unparseable`` when it
    does not parse or divides by zero. A gold equation that does not parse
    or solve is a ``ValueError`` naming its record.

    Both sides are canonicalized before BLEU tokenization when they parse,
    which removes detokenization whitespace artifacts without hiding real
    errors; a canonical string's tokens are its ``split()``. Unparseable
    predictions are tokenized raw.
    """
    if len(predictions) != len(records):
        raise ValueError(f"{len(predictions)} predictions for {len(records)} records")
    if not records:
        raise ValueError("no records to score")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    tol = Fraction(tolerance)
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    per_record: list[dict] = []
    # clipped n-gram counts are taken once per record and serve both the
    # sentence score and the pooled corpus score
    tallies: list[tuple[list[tuple[int, int]], int, int]] = []
    correct = 0
    for pred, rec in zip(predictions, records):
        ref_eq = gold_equation(rec)
        ref_canon = equation.to_canonical_string(ref_eq)
        try:
            ref_value = equation.solve(ref_eq)
        except equation.DivisionByZero as exc:
            raise ValueError(f"record {rec.id!r}: reference equation does not solve: {exc}") from exc

        verdict, pred_eq, pred_value = _judge(pred, ref_value, tol)
        correct += verdict == CORRECT
        cand_tokens = tokenize(pred) if pred_eq is None else equation.to_canonical_string(pred_eq).split()
        ref_tokens = ref_canon.split()
        tallies.append((_match_counts(cand_tokens, ref_tokens, max_n), len(cand_tokens), len(ref_tokens)))
        per_record.append({
            "id": rec.id,
            "predicted": pred,
            "reference": ref_canon,
            "bleu": _sentence_bleu_from_counts(*tallies[-1]),
            "solved_value": None if pred_value is None else str(pred_value),
            "reference_value": str(ref_value),
            "verdict": verdict,
        })
    return _Report({
        "corpus_bleu": _corpus_bleu_from_counts(tallies, max_n),
        "solution_accuracy": correct / len(records),
        "n_records": len(records),
        "per_record": per_record,
        "metadata": {},
    })


def format_results_table(rows: Sequence[dict]) -> str:
    """Render rows as an aligned table: Model, Batch Size, Epoch, Bleu, Accuracy."""
    header = ("Model Name", "Batch Size", "Epoch", "Bleu", "Accuracy")
    body = []
    for row in rows:
        if row.get("error"):
            body.append((str(row.get("model", "-")), str(row.get("batch_size", "-")),
                         str(row.get("epochs", "-")), "-", f"error: {row['error']}"))
        else:
            body.append(
                (
                    str(row.get("model", "transformer")),
                    str(row["batch_size"]),
                    str(row["epochs"]),
                    f"{row['bleu']:.2f}",
                    f"{100.0 * row['accuracy']:.2f}%",
                )
            )
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i]) for i in range(5)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(5)),
    ]
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(5)).rstrip())
    return "\n".join(lines)

"""BLEU and solution accuracy for predicted equations.

Two complementary scores: BLEU measures surface n-gram overlap between the
predicted and reference token sequences, while solution accuracy parses and
solves both equations and compares the numeric results. The two deliberately
disagree on predictions that are mathematically right but reordered.

BLEU conventions used here:

* ``sentence_bleu`` returns BLEU-4 in [0, 1] and applies add-one smoothing
  to the n >= 2 precisions, so single-sentence scores are never zero merely
  because one higher-order count is empty.
* ``corpus_bleu`` returns BLEU-4 on the 0..100 scale from micro-averaged
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
from itertools import chain
from typing import Sequence

from . import equation
from .dataset import gold_equation
from .preprocess import tokenize

CORRECT, WRONG, UNPARSEABLE = "correct", "wrong", "unparseable"
MAX_N = 4  # the highest n-gram order BLEU counts: BLEU-4, as the paper reports

# one pair's BLEU tally: clipped matches and totals per order, candidate and reference lengths
_Tally = tuple[list[tuple[int, int]], int, int]


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    if cand_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def _ngram_counts(tokens: Sequence[str]) -> Counter:
    """Every n-gram of orders 1..MAX_N in one counter; grams of different
    orders are tuples of different lengths, so they never collide."""
    return Counter(chain.from_iterable(zip(*(tokens[k:] for k in range(n))) for n in range(1, MAX_N + 1)))


def _match_counts(candidate: Sequence[str], reference: Sequence[str]) -> list[tuple[int, int]]:
    """Clipped matches and candidate n-gram totals for n = 1..MAX_N."""
    totals = [max(len(candidate) - n + 1, 0) for n in range(1, MAX_N + 1)]
    if candidate == reference:  # every candidate n-gram is matched
        return list(zip(totals, totals))
    ref = _ngram_counts(reference)
    matches = [0] * MAX_N
    for gram, count in _ngram_counts(candidate).items():
        if gram in ref:
            matches[len(gram) - 1] += min(count, ref[gram])
    return list(zip(matches, totals))


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


def _corpus_bleu_from_counts(tallies: Sequence[_Tally]) -> float:
    """Corpus BLEU from per-pair (counts, candidate length, reference length)."""
    matches = [0] * MAX_N
    totals = [0] * MAX_N
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


def sentence_bleu(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Smoothed sentence-level BLEU-4 in [0, 1].

    Geometric mean of modified n-gram precisions for n = 1..4; the
    unigram precision is unsmoothed (no overlap or an empty candidate scores
    zero) and the higher orders get add-one smoothing, times the brevity
    penalty.
    """
    return _sentence_bleu_from_counts(_match_counts(candidate, reference), len(candidate), len(reference))


def corpus_bleu(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> float:
    """Corpus BLEU-4 on the 0..100 scale with pooled, unsmoothed counts.

    N-gram orders for which the whole corpus has no candidate n-grams are
    excluded from the geometric mean (short sentences would otherwise zero
    out identical corpora).
    """
    if not pairs:
        raise ValueError("corpus_bleu needs at least one pair")
    return _corpus_bleu_from_counts([(_match_counts(c, r), len(c), len(r)) for c, r in pairs])


# --- solution accuracy and the corpus report ----------------------------------


def _gold(rec, solved: dict[str, tuple[str, Fraction]]) -> tuple[str, Fraction]:
    """A record's canonical gold equation and its value, parsed once per text."""
    hit = solved.get(rec.equation_text)
    if hit is None:
        ref_eq = gold_equation(rec)
        try:
            hit = solved[rec.equation_text] = equation.to_canonical_string(ref_eq), equation.solve(ref_eq)
        except equation.DivisionByZero as exc:
            raise ValueError(f"record {rec.id!r}: reference equation does not solve: {exc}") from exc
    return hit


def _prediction(predicted: str, solved: dict[str, tuple[str, Fraction]]) -> tuple[list[str], Fraction | None]:
    """A prediction's BLEU tokens and value; the value is None when it does
    not parse or divides by zero. One that parses is tokenized canonical,
    even when it divides by zero; one that does not is tokenized raw."""
    hit = solved.get(predicted)
    if hit is not None:
        return hit[0].split(), hit[1]
    try:
        parsed = equation.parse_equation(predicted)
    except equation.ParseError:
        return tokenize(predicted), None
    canon = equation.to_canonical_string(parsed)
    try:
        value = equation.solve(parsed)
    except equation.DivisionByZero:
        return canon.split(), None
    solved[predicted] = canon, value
    return canon.split(), value


def _score_pair(pred: str, rec, tol: Fraction, solved: dict[str, tuple[str, Fraction]]) -> tuple[_Tally, dict]:
    """The BLEU tally of one (prediction, gold) pair and its report row
    without the ``id``."""
    ref_canon, ref_value = _gold(rec, solved)
    cand_tokens, pred_value = _prediction(pred, solved)
    if pred_value is None:
        verdict = UNPARSEABLE
    else:
        verdict = CORRECT if abs(pred_value - ref_value) <= tol else WRONG
    ref_tokens = ref_canon.split()
    tally = _match_counts(cand_tokens, ref_tokens), len(cand_tokens), len(ref_tokens)
    return tally, {
        "predicted": pred,
        "reference": ref_canon,
        "bleu": _sentence_bleu_from_counts(*tally),
        "solved_value": None if pred_value is None else str(pred_value),
        "reference_value": str(ref_value),
        "verdict": verdict,
    }


class _Report(dict):
    # bench/spans.py counts a traced call's records as ``result.n_records``
    n_records = property(lambda self: self["n_records"])


def evaluate_corpus(
    predictions: Sequence[str],
    records: Sequence,
    tolerance: Fraction | int | str = 0,
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
    predictions are tokenized raw. Each distinct equation text that parses
    and solves is parsed, solved and canonicalized once per call, and each
    distinct (prediction, gold text) pair is scored once per call.
    """
    if len(predictions) != len(records):
        raise ValueError(f"{len(predictions)} predictions for {len(records)} records")
    if not records:
        raise ValueError("no records to score")
    tol = Fraction(tolerance)
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    per_record: list[dict] = []
    # clipped n-gram counts are taken once per distinct pair and serve both
    # the sentence score and the pooled corpus score
    tallies: list[_Tally] = []
    # equation text -> (canonical string, value) for each text, gold or
    # predicted, that parsed and solved in this call
    solved: dict[str, tuple[str, Fraction]] = {}
    # (prediction, gold text) -> (tally, row without its id): a row is a
    # function of its pair and the tolerance, which is fixed for the call
    scored: dict[tuple[str, str], tuple[_Tally, dict]] = {}
    correct = 0
    for pred, rec in zip(predictions, records):
        pair = pred, rec.equation_text
        hit = scored.get(pair)
        if hit is None:
            hit = scored[pair] = _score_pair(pred, rec, tol, solved)
        tally, row = hit
        tallies.append(tally)
        correct += row["verdict"] == CORRECT
        per_record.append({"id": rec.id, **row})
    return _Report({
        "corpus_bleu": _corpus_bleu_from_counts(tallies),
        "solution_accuracy": correct / len(records),
        "n_records": len(records),
        "per_record": per_record,
        "metadata": {},
    })


def format_results_table(rows: Sequence[dict]) -> str:
    """Render rows as an aligned table: Model, Batch Size, Epoch, Bleu, Accuracy.
    A row with an ``error`` shows it in place of the two scores."""
    header = ("Model Name", "Batch Size", "Epoch", "Bleu", "Accuracy")
    body = [
        (*(str(row.get(key, "-")) for key in ("model", "batch_size", "epochs")),
         *(("-", f"error: {row['error']}") if row.get("error")
           else (f"{row['bleu']:.2f}", f"{100.0 * row['accuracy']:.2f}%")))
        for row in rows
    ]
    widths = [max(map(len, column)) for column in zip(header, *body)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in (header, *body)]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)

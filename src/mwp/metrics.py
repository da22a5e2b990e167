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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import equation
from .dataset import gold_equation
from .preprocess import tokenize

CORRECT, WRONG, UNPARSEABLE = "correct", "wrong", "unparseable"


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(candidate: Sequence[str], reference: Sequence[str], n: int) -> tuple[int, int]:
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    matches = sum(min(count, ref[gram]) for gram, count in cand.items())
    return matches, sum(cand.values())


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    if cand_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def _match_counts(candidate: Sequence[str], reference: Sequence[str], max_n: int) -> list[tuple[int, int]]:
    """Clipped matches and candidate n-gram totals for n = 1..max_n."""
    return [_clipped_matches(candidate, reference, n) for n in range(1, max_n + 1)]


def _sentence_bleu_from_counts(counts: list[tuple[int, int]], cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
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
    unigram precision is unsmoothed (zero overlap scores zero) and the
    higher orders get add-one smoothing, times the brevity penalty.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if not candidate:
        return 0.0
    return _sentence_bleu_from_counts(_match_counts(candidate, reference, max_n), len(candidate), len(reference))


def corpus_bleu(pairs: Sequence[tuple[Sequence[str], Sequence[str]]], max_n: int = 4) -> float:
    """Corpus BLEU on the 0..100 scale with pooled, unsmoothed counts.

    N-gram orders for which the whole corpus has no candidate n-grams are
    excluded from the geometric mean (short sentences would otherwise zero
    out identical corpora).
    """
    if not pairs:
        raise ValueError("corpus_bleu needs at least one pair")
    tallies = [(_match_counts(c, r, max_n), len(c), len(r)) for c, r in pairs]
    return _corpus_bleu_from_counts(tallies, max_n)


# --- solution accuracy ----------------------------------------------------


@dataclass(frozen=True)
class PairVerdict:
    verdict: str  # CORRECT | WRONG | UNPARSEABLE
    predicted_value: Fraction | None
    reference_value: Fraction


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


def solution_accuracy(
    pairs: Sequence[tuple[str, str]],
    tolerance: Fraction | int | str = 0,
) -> tuple[float, list[PairVerdict]]:
    """Fraction of predictions whose solved value matches the reference.

    ``pairs`` holds (predicted, reference) equation strings. References must
    parse and solve; predictions that do not are counted wrong with an
    ``unparseable`` verdict. The comparison is exact rational equality when
    ``tolerance`` is 0 (the default).
    """
    tol = Fraction(tolerance)
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    verdicts: list[PairVerdict] = []
    correct = 0
    for i, (predicted, reference) in enumerate(pairs):
        try:
            ref_value = equation.solve(equation.parse_equation(reference))
        except equation.EquationError as exc:
            raise ValueError(f"reference equation {i} does not solve: {exc}") from exc
        verdict, _, pred_value = _judge(predicted, ref_value, tol)
        verdicts.append(PairVerdict(verdict, pred_value, ref_value))
        correct += verdict == CORRECT
    return correct / len(pairs) if pairs else 0.0, verdicts


# --- corpus reports ---------------------------------------------------------


@dataclass
class RecordResult:
    id: str
    predicted: str
    reference: str
    bleu: float
    solved_value: str | None
    reference_value: str | None
    verdict: str

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "predicted": self.predicted,
            "reference": self.reference,
            "bleu": self.bleu,
            "solved_value": self.solved_value,
            "reference_value": self.reference_value,
            "verdict": self.verdict,
        }


@dataclass
class EvalReport:
    corpus_bleu: float
    solution_accuracy: float
    n_records: int
    per_record: list[RecordResult]
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "corpus_bleu": self.corpus_bleu,
            "solution_accuracy": self.solution_accuracy,
            "n_records": self.n_records,
            "per_record": [r.as_dict() for r in self.per_record],
            "metadata": self.metadata,
        }


def evaluate_corpus(
    predictions: Sequence[str],
    records: Sequence,
    tolerance: Fraction | int | str = 0,
    max_n: int = 4,
) -> EvalReport:
    """Score one prediction string per record and assemble a report.

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
    results: list[RecordResult] = []
    # clipped n-gram counts are taken once per record and serve both the
    # sentence score and the pooled corpus score
    tallies: list[tuple[list[tuple[int, int]], int, int]] = []
    correct = 0
    tol = Fraction(tolerance)
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
        results.append(
            RecordResult(
                id=rec.id,
                predicted=pred,
                reference=ref_canon,
                bleu=_sentence_bleu_from_counts(*tallies[-1]),
                solved_value=None if pred_value is None else str(pred_value),
                reference_value=str(ref_value),
                verdict=verdict,
            )
        )
    return EvalReport(
        corpus_bleu=_corpus_bleu_from_counts(tallies, max_n),
        solution_accuracy=correct / len(records),
        n_records=len(records),
        per_record=results,
    )


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

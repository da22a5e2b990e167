"""Loading, classifying, and splitting word-problem records.

:func:`gold_equation` parses a record's gold equation for class counts,
training targets and scoring, so a bad one is the same data error naming the
record wherever it is found.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import equation
from .atomic import read_utf8, write_text_atomic


class DatasetError(ValueError):
    """Malformed dataset content."""


@dataclass
class MwpRecord:
    """One word problem paired with its gold equation and optional answer."""

    id: str
    problem_text: str
    equation_text: str
    answer: Fraction | None = None


class EquationClass(enum.Enum):
    SIMPLE_ADD = "add"
    SIMPLE_SUB = "sub"
    SIMPLE_MUL = "mul"
    SIMPLE_DIV = "div"
    COMPLEX = "complex"
    NOOP = "noop"  # bare literal, e.g. "x = 5"


_SIMPLE_BY_OP = {
    equation.Op.ADD: EquationClass.SIMPLE_ADD,
    equation.Op.SUB: EquationClass.SIMPLE_SUB,
    equation.Op.MUL: EquationClass.SIMPLE_MUL,
    equation.Op.DIV: EquationClass.SIMPLE_DIV,
}


def classify_equation(eq: equation.Equation) -> EquationClass:
    """Simple(op) for exactly one operator, Complex for two or more, NoOp
    for a bare literal."""
    counts = equation.count_operators(eq.rhs)
    total = sum(counts.values())
    if total == 0:
        return EquationClass.NOOP
    if total == 1:
        op = next(op for op, c in counts.items() if c == 1)
        return _SIMPLE_BY_OP[op]
    return EquationClass.COMPLEX


def gold_equation(rec: MwpRecord) -> equation.Equation:
    """The record's parsed gold equation; a parse failure is a
    :class:`DatasetError` naming the record."""
    try:
        return equation.parse_equation(rec.equation_text)
    except equation.ParseError as exc:
        raise DatasetError(f"record {rec.id!r}: bad equation: {exc}") from exc


def summarize(records: Sequence[MwpRecord]) -> dict[str, int]:
    """Count records per equation class, in :class:`EquationClass` order,
    then the total. Unparseable equations are an error."""
    counts = dict.fromkeys([cls.value for cls in EquationClass] + ["total"], 0)
    for rec in records:
        counts[classify_equation(gold_equation(rec)).value] += 1
    counts["total"] = len(records)
    return counts


# --- splitting ----------------------------------------------------------


def allocate_counts(n: int, proportions: Sequence[Fraction]) -> list[int]:
    """Largest-remainder apportionment of ``n`` items; ties favor earlier
    entries (train before validation before test)."""
    exact = [n * p for p in proportions]
    base = [int(e) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(len(exact)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split_fractions(ratios: Sequence[Fraction | float | str]) -> list[Fraction]:
    """The split ratios as exact fractions (a float as it is written). The
    rule for them: three positive numbers that sum exactly to 1."""
    if len(ratios) != 3:
        raise ValueError(f"split ratios must have exactly three entries, got {ratios!r}")
    try:
        fracs = [Fraction(str(r)) if isinstance(r, float) else Fraction(r) for r in ratios]
    except (ValueError, ZeroDivisionError):  # nan, inf or a malformed string
        fracs = [Fraction(0)]
    if any(f <= 0 for f in fracs):
        raise ValueError(f"split ratios must be three positive numbers, got {ratios!r}")
    if sum(fracs) != 1:
        raise ValueError(f"split ratios must sum to 1, got {ratios!r} (sum {sum(fracs)})")
    return fracs


def split_dataset(
    records: Sequence[MwpRecord],
    seed: int,
    ratios: Sequence[Fraction | float | str] = (Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)),
) -> tuple[list[MwpRecord], list[MwpRecord], list[MwpRecord]]:
    """Shuffle with a seeded PRNG and partition by the given ratios into
    (train, validation, test).

    The same seed and input always produce the identical partition.
    """
    fracs = split_fractions(ratios)
    if not records:
        raise ValueError("cannot split an empty record list")
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    n_train, n_val, _ = allocate_counts(len(shuffled), fracs)
    return shuffled[:n_train], shuffled[n_train : n_train + n_val], shuffled[n_train + n_val :]


# --- file formats -------------------------------------------------------


def _parse_answer(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"bad answer value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return Fraction(int(value))  # the value Fraction(value) gives, about 3x faster
    if isinstance(value, (float, str)):
        return Fraction(str(value))
    raise ValueError(f"bad answer value: {value!r}")


def load_dataset(path: str | Path, format: str = "jsonl") -> list[MwpRecord]:
    """Read records from a JSONL or two-column TSV file.

    Missing ids default to the 1-based line number; duplicate ids and
    malformed lines raise :class:`DatasetError` naming the file and line.
    """
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown format: {format!r}")
    text = read_utf8(path, DatasetError)
    records: list[MwpRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if format == "jsonl":
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}, line {lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict) or "problem" not in obj or "equation" not in obj:
                raise DatasetError(f"{path}, line {lineno}: object must have 'problem' and 'equation' keys")
            if not isinstance(obj["problem"], str) or not isinstance(obj["equation"], str):
                raise DatasetError(f"{path}, line {lineno}: 'problem' and 'equation' must be strings")
            rec_id = str(obj.get("id", lineno))
            answer = None
            if obj.get("answer") is not None:
                try:
                    answer = _parse_answer(obj["answer"])
                except (ValueError, ZeroDivisionError) as exc:
                    raise DatasetError(f"{path}, line {lineno}: bad answer: {exc}") from exc
            rec = MwpRecord(rec_id, obj["problem"], obj["equation"], answer)
        else:
            cols = line.split("\t")
            if len(cols) != 2:
                raise DatasetError(f"{path}, line {lineno}: expected 2 tab-separated columns, found {len(cols)}")
            rec = MwpRecord(str(lineno), cols[0], cols[1], None)
        if rec.id in seen:
            raise DatasetError(f"{path}, line {lineno}: duplicate id {rec.id!r}")
        seen.add(rec.id)
        records.append(rec)
    return records


def save_dataset(records: Sequence[MwpRecord], path: str | Path) -> None:
    """Write records as UTF-8 JSONL with keys id/problem/equation/answer."""
    lines = []
    for rec in records:
        obj: dict[str, str] = {"id": rec.id, "problem": rec.problem_text, "equation": rec.equation_text}
        if rec.answer is not None:
            obj["answer"] = str(rec.answer)
        lines.append(json.dumps(obj, ensure_ascii=False))
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))

"""Reference computations the benchmark checks the program against.

Nothing here imports ``mwp``. Equations are evaluated through Python's
``ast`` with exact ``fractions.Fraction`` arithmetic, BLEU is counted by
merging sorted n-gram lists and combined as a product rather than a sum of
logs, and tokenization is a regular expression rather than a character loop.
"""

from __future__ import annotations

import ast
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

CORRECT, WRONG, UNPARSEABLE = "correct", "wrong", "unparseable"

_BENGALI_TO_ASCII = {ord(b): ord(a) for b, a in zip("০১২৩৪৫৬৭৮৯", "0123456789")}
_LEXEME = re.compile(r"\s+|[0-9]+(?:\.[0-9]+)?|[-+*/()]")
_VARIABLE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


class Unparseable(Exception):
    """The text is not ``<variable> = <expression>`` in the equation grammar."""


class DivideByZero(Exception):
    """The expression divides by zero."""


def parse(text: str) -> tuple[str, tuple]:
    """Parse to ``(variable, tree)``; a tree is ``("num", Fraction)`` or
    ``(op, left, right)``.

    Numbers are swapped for placeholder names before ``ast`` sees the text,
    so Python's own literal rules (leading zeros, exponents, underscores)
    never apply; parentheses, precedence and left associativity are Python's.
    """
    lhs, sep, rhs = text.translate(_BENGALI_TO_ASCII).partition("=")
    if not sep or not _VARIABLE.fullmatch(lhs.strip()):
        raise Unparseable(text)
    pieces, numbers, pos = [], [], 0
    while pos < len(rhs):
        match = _LEXEME.match(rhs, pos)
        if match is None:
            raise Unparseable(text)
        lexeme = match.group()
        if lexeme[0].isdigit():
            pieces.append(f" n{len(numbers)} ")
            numbers.append(Fraction(lexeme))
        else:
            pieces.append(lexeme)
        pos = match.end()
    try:
        tree = ast.parse("".join(pieces).strip(), mode="eval").body
    except SyntaxError as exc:
        raise Unparseable(text) from exc

    def build(node) -> tuple:
        if isinstance(node, ast.Name):
            return ("num", numbers[int(node.id[1:])])
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return (_OPS[type(node.op)], build(node.left), build(node.right))
        raise Unparseable(text)

    return lhs.strip().lower(), build(tree)


def value_of(tree: tuple) -> Fraction:
    if tree[0] == "num":
        return tree[1]
    left, right = value_of(tree[1]), value_of(tree[2])
    op = tree[0]
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise DivideByZero()
    return left / right


def evaluate(text: str) -> Fraction | None:
    """Exact value of an equation, or None when it does not parse or solve."""
    try:
        return value_of(parse(text)[1])
    except (Unparseable, DivideByZero):
        return None


def number_text(value: Fraction) -> str:
    """A non-negative terminating rational as an integer or decimal literal."""
    if value.denominator == 1:
        return str(value.numerator)
    with localcontext() as ctx:
        ctx.prec = 200
        return format(Decimal(value.numerator) / Decimal(value.denominator), "f")


def value_text(value: Fraction) -> str:
    """How ``mwp solve`` prints a value: the literal, or ``p/q`` when the
    decimal expansion does not terminate."""
    den = value.denominator
    for prime in (2, 5):
        while den % prime == 0:
            den //= prime
    if den != 1:
        return str(value)
    return ("-" if value < 0 else "") + number_text(abs(value))


def render(variable: str, tree: tuple) -> str:
    """Single-spaced tokens with the fewest parentheses that reparse to the
    same tree."""

    def walk(node: tuple, context: int, right_side: bool) -> list[str]:
        if node[0] == "num":
            return [number_text(node[1])]
        prec = _PRECEDENCE[node[0]]
        inner = walk(node[1], prec, False) + [node[0]] + walk(node[2], prec, True)
        wrap = prec < context or (right_side and prec == context)
        return ["(", *inner, ")"] if wrap else inner

    return " ".join([variable, "=", *walk(tree, 0, False)])


def canonical(text: str) -> str:
    """The canonical form of an equation; raises Unparseable."""
    return render(*parse(text))


def tokens(text: str) -> list[str]:
    """Lowercase and split, with each punctuation mark its own token except a
    period between two digits."""
    spaced = re.sub(r"(?<!\d)\.|\.(?!\d)|[।,?()+\-*/=]", lambda m: f" {m.group()} ", text.lower())
    return spaced.split()


def bleu_tokens(text: str) -> list[str]:
    """BLEU tokens: the canonical form when the text parses, else the raw text."""
    try:
        return canonical(text).split(" ")
    except Unparseable:
        return tokens(text)


def _matches(candidate: list[str], reference: list[str], n: int) -> tuple[int, int]:
    """Clipped n-gram matches by merging the two sorted n-gram lists."""
    cand = sorted(tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1))
    ref = sorted(tuple(reference[i : i + n]) for i in range(len(reference) - n + 1))
    hits = i = j = 0
    while i < len(cand) and j < len(ref):
        if cand[i] == ref[j]:
            hits += 1
            i += 1
            j += 1
        elif cand[i] < ref[j]:
            i += 1
        else:
            j += 1
    return hits, len(cand)


def _brevity(cand_len: int, ref_len: int) -> float:
    return 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)


def sentence_bleu(candidate: list[str], reference: list[str], max_n: int = 4) -> float:
    """Unigram precision unsmoothed, higher orders add-one smoothed, in [0, 1]."""
    if not candidate:
        return 0.0
    product = 1.0
    for n in range(1, max_n + 1):
        hits, total = _matches(candidate, reference, n)
        if n == 1 and hits == 0:
            return 0.0
        product *= hits / total if n == 1 else (hits + 1) / (total + 1)
    return _brevity(len(candidate), len(reference)) * product ** (1.0 / max_n)


def corpus_bleu(pairs: list[tuple[list[str], list[str]]], max_n: int = 4) -> float:
    """Pooled, unsmoothed corpus BLEU on the 0..100 scale; orders with no
    candidate n-grams anywhere are left out of the mean."""
    hits, totals = [0] * max_n, [0] * max_n
    for candidate, reference in pairs:
        for n in range(1, max_n + 1):
            h, t = _matches(candidate, reference, n)
            hits[n - 1] += h
            totals[n - 1] += t
    precisions = [h / t for h, t in zip(hits, totals) if t]
    if not precisions or 0.0 in precisions:
        return 0.0
    cand_len = sum(len(c) for c, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    if cand_len == 0:
        return 0.0
    return 100.0 * _brevity(cand_len, ref_len) * math.prod(precisions) ** (1.0 / len(precisions))


def verdict(predicted: str, reference: str) -> tuple[str, Fraction | None]:
    value = evaluate(predicted)
    if value is None:
        return UNPARSEABLE, None
    return (CORRECT if value == evaluate(reference) else WRONG), value


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_report(report: dict, predictions: list[str], references: list[str], ids: list[str]) -> dict[str, int]:
    """Check an ``mwp eval`` report record by record; return verdict counts.

    Raises AssertionError naming the first record that disagrees.
    """
    rows = report["per_record"]
    assert len(rows) == len(predictions) == report["n_records"], "report length differs from the input"
    counts = {CORRECT: 0, WRONG: 0, UNPARSEABLE: 0}
    pairs = []
    for row, pred, ref, rid in zip(rows, predictions, references, ids):
        assert row["id"] == rid and row["predicted"] == pred, f"record {rid}: report row out of order"
        expected, value = verdict(pred, ref)
        assert row["verdict"] == expected, f"record {rid}: verdict {row['verdict']} != {expected} for {pred!r}"
        assert row["solved_value"] == (None if value is None else str(value)), f"record {rid}: solved value"
        assert row["reference_value"] == str(evaluate(ref)), f"record {rid}: reference value"
        assert row["reference"] == canonical(ref), f"record {rid}: canonical reference"
        cand, gold = bleu_tokens(pred), canonical(ref).split(" ")
        assert close(row["bleu"], sentence_bleu(cand, gold)), f"record {rid}: sentence BLEU"
        pairs.append((cand, gold))
        counts[expected] += 1
    assert close(report["corpus_bleu"], corpus_bleu(pairs)), "corpus BLEU differs from the naive count"
    assert close(report["solution_accuracy"], counts[CORRECT] / len(rows)), "solution accuracy"
    return counts

"""Equation parsing, exact evaluation, and canonical printing.

Grammar (left-associative, ``*``/``/`` bind tighter than ``+``/``-``)::

    equation := ident '=' expr
    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := number | '(' expr ')'

Numbers accept ASCII or Bengali digits and an optional decimal point; they
are stored as exact :class:`fractions.Fraction` values, so evaluation never
rounds. Unary minus is not part of the grammar. Parentheses nest at most
``MAX_DEPTH`` deep, so the recursive parser stays well inside Python's
recursion limit.
"""

from __future__ import annotations

import enum
import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .preprocess import normalize_digits


class EquationError(Exception):
    """Base class for parse and evaluation failures, with a source offset."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)


class ParseError(EquationError):
    pass


class MissingEquals(ParseError):
    pass


class TrailingInput(ParseError):
    pass


class ParenMismatch(ParseError):
    pass


class EmptyExpression(ParseError):
    pass


class UnexpectedToken(ParseError):
    pass


class TooDeep(ParseError):
    pass


class DivisionByZero(EquationError):
    pass


class Op(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"

    @property
    def symbol(self) -> str:
        return self.value


_PRECEDENCE = {Op.ADD: 1, Op.SUB: 1, Op.MUL: 2, Op.DIV: 2}


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: Op
    left: "Expr"
    right: "Expr"
    pos: int | None = field(default=None, compare=False, repr=False)


Expr = Union[Num, BinOp]


@dataclass(frozen=True)
class Equation:
    variable: str
    rhs: Expr


# --- lexer ------------------------------------------------------------

_SYMBOLS = frozenset("=+-*/()")
_DIGITS = frozenset("0123456789")
_ALNUM = frozenset(string.ascii_letters) | _DIGITS
_ADD_OPS = {"+": Op.ADD, "-": Op.SUB}
_MUL_OPS = {"*": Op.MUL, "/": Op.DIV}

# A token is (kind, text, offset), kind one of IDENT, NUMBER, SYMBOL, END.
_Token = tuple[str, str, int]


def _lex(s: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch in _SYMBOLS:
            append(("SYMBOL", ch, i))
            i += 1
        elif ch in _DIGITS:
            j = i + 1
            while j < n and s[j] in _DIGITS:
                j += 1
            if j < n - 1 and s[j] == "." and s[j + 1] in _DIGITS:
                j += 2
                while j < n and s[j] in _DIGITS:
                    j += 1
            append(("NUMBER", s[i:j], i))
            i = j
        elif ch in _ALNUM:
            j = i + 1
            while j < n and s[j] in _ALNUM:
                j += 1
            append(("IDENT", s[i:j].lower(), i))
            i = j
        elif ch.isspace():
            i += 1
        else:
            raise UnexpectedToken(f"unexpected character {ch!r}", offset=i)
    append(("END", "", n))
    return tokens


# --- parser -----------------------------------------------------------

MAX_DEPTH = 100  # the most parentheses open at once; each costs three stack frames


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # parentheses open at the current token

    def parse_equation(self) -> Equation:
        kind, text, offset = self.tokens[0]
        if kind != "IDENT":
            raise UnexpectedToken(f"expected a variable name, found {text or 'end of input'!r}", offset=offset)
        variable = text
        kind, text, offset = self.tokens[1]
        if text != "=":
            raise MissingEquals("expected '=' after the variable", offset=offset)
        self.i = 2
        kind, text, offset = self.tokens[2]
        if kind == "END":
            raise EmptyExpression("nothing after '='", offset=offset)
        rhs = self.parse_expr()
        kind, text, offset = self.tokens[self.i]
        if kind != "END":
            if text == ")":
                raise ParenMismatch("unmatched ')'", offset=offset)
            raise TrailingInput(f"unexpected trailing {text!r}", offset=offset)
        return Equation(variable=variable, rhs=rhs)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        op = _ADD_OPS.get(self.tokens[self.i][1])
        while op is not None:
            pos = self.tokens[self.i][2]
            self.i += 1
            node = BinOp(op, node, self.parse_term(), pos=pos)
            op = _ADD_OPS.get(self.tokens[self.i][1])
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        op = _MUL_OPS.get(self.tokens[self.i][1])
        while op is not None:
            pos = self.tokens[self.i][2]
            self.i += 1
            node = BinOp(op, node, self.parse_factor(), pos=pos)
            op = _MUL_OPS.get(self.tokens[self.i][1])
        return node

    def parse_factor(self) -> Expr:
        kind, text, offset = self.tokens[self.i]
        if kind == "NUMBER":
            self.i += 1
            # for digits alone, Fraction(int(text)) is Fraction(text), about 3x faster
            return Num(Fraction(text) if "." in text else Fraction(int(text)), pos=offset)
        if text == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise TooDeep(f"more than {MAX_DEPTH} nested parentheses", offset=offset)
            self.i += 1
            node = self.parse_expr()
            kind, text, offset = self.tokens[self.i]
            if text != ")":
                raise ParenMismatch("expected ')'", offset=offset)
            self.i += 1
            self.depth -= 1
            return node
        if kind == "END":
            raise UnexpectedToken("unexpected end of input", offset=offset)
        raise UnexpectedToken(f"unexpected {text!r}", offset=offset)


def parse_equation(s: str) -> Equation:
    """Parse ``<variable> = <expression>`` into an :class:`Equation`.

    Bengali digits are accepted and normalized to ASCII before lexing (the
    character-wise mapping keeps error offsets aligned with the input).
    """
    normalized = normalize_digits(s, "bengali_to_ascii")
    tokens = _lex(normalized)
    if "=" not in normalized:  # once lexed, every '=' is a SYMBOL token
        raise MissingEquals("no '=' in input", offset=len(s))
    return _Parser(tokens).parse_equation()


# --- evaluation and printing ------------------------------------------


def _apply(node: BinOp, left: Fraction, right: Fraction) -> Fraction:
    if node.op is Op.ADD:
        return left + right
    if node.op is Op.SUB:
        return left - right
    if node.op is Op.MUL:
        return left * right
    if right == 0:
        raise DivisionByZero("division by zero", offset=node.pos)
    return left / right


def evaluate(e: Expr) -> Fraction:
    """Evaluate an expression with exact rational arithmetic.

    The tree is walked with an explicit stack, left operand first, so a
    long chain of operators cannot exhaust the interpreter's recursion limit.
    """
    values: list[Fraction] = []
    todo: list[tuple[Expr, bool]] = [(e, False)]  # (node, operands already on ``values``)
    while todo:
        node, ready = todo.pop()
        if ready:
            right = values.pop()
            values.append(_apply(node, values.pop(), right))
        elif isinstance(node, Num):
            values.append(node.value)
        elif isinstance(node.left, Num) and isinstance(node.right, Num):
            # the common one-operator case needs no stack traffic
            values.append(_apply(node, node.left.value, node.right.value))
        else:
            todo += ((node, True), (node.right, False), (node.left, False))
    return values[0]


def solve(eq: Equation) -> Fraction:
    """Solve an equation whose left side is a bare variable."""
    return evaluate(eq.rhs)


def count_operators(e: Expr) -> dict[Op, int]:
    """Count binary operator nodes by kind."""
    counts = {op: 0 for op in Op}
    todo = [e]
    while todo:
        node = todo.pop()
        if isinstance(node, BinOp):
            counts[node.op] += 1
            todo += (node.left, node.right)
    return counts


def _precedence(e: Expr) -> int:
    return _PRECEDENCE[e.op] if isinstance(e, BinOp) else 3


def format_number(value: Fraction) -> str:
    """Render a rational as an integer or exact decimal literal.

    Only non-negative rationals with a terminating decimal expansion are
    representable in the grammar; anything else raises ``ValueError``.
    """
    if value.denominator == 1 and value.numerator >= 0:
        return str(value.numerator)
    if value < 0:
        raise ValueError(f"negative literal {value} is not representable")
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no terminating decimal form")
    k = max(twos, fives)
    scaled = value.numerator * 10**k // value.denominator
    digits = str(scaled).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}"


def to_canonical_string(eq: Equation) -> str:
    """Print with single-space-separated tokens, ASCII digits, and minimal
    parentheses; reparsing yields a structurally identical tree."""
    out: list[str] = [eq.variable.lower(), "="]
    # an explicit stack of nodes still to print and tokens to emit, so a long
    # chain of operators cannot exhaust the recursion limit
    todo: list[Expr | str] = [eq.rhs]
    while todo:
        e = todo.pop()
        if isinstance(e, str):
            out.append(e)
        elif isinstance(e, Num):
            out.append(format_number(e.value))
        else:
            prec = _PRECEDENCE[e.op]
            # Pushed right to left. Left-associative grammar: a right child at
            # equal precedence would rebind on reparse, so it keeps its parentheses.
            todo += (")", e.right, "(") if _precedence(e.right) <= prec else (e.right,)
            todo.append(e.op.symbol)
            todo += (")", e.left, "(") if _precedence(e.left) < prec else (e.left,)
    return " ".join(out)

"""The text front-end as it was before it was made single-pass, kept as the
reference the differential tests compare the packaged code against.

A copy of the text normalizer, which ``preprocess.tokenize`` joined on
spaces must reproduce, and of ``preprocess.encode``, over a punctuation set
stated here; and verbatim copies of ``equation._lex``,
``_Parser``, ``parse_equation``, ``format_number`` and
``to_canonical_string``: a character-at-a-time tokenizer, a lexer that
builds a frozen dataclass per token, and ``Fraction(text)`` for every
number literal. The tree types, the exception classes and the vocabulary
come from the package, so results and errors compare with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mwp.equation import (
    _PRECEDENCE,
    BinOp,
    EmptyExpression,
    Equation,
    Expr,
    MissingEquals,
    Num,
    Op,
    ParenMismatch,
    TrailingInput,
    UnexpectedToken,
    _precedence,
)
from mwp.preprocess import BOS_ID, EOS_ID, Vocab, normalize_digits

# --- preprocess -------------------------------------------------------


# the danda, ASCII sentence punctuation and the equation symbols
PUNCTUATION = frozenset("।,?.()+-*/=")


def normalize_text(s: str) -> str:
    """Lowercase, trim, collapse whitespace, and space out punctuation.

    A period flanked by digits on both sides is kept in place so decimal
    literals like ``2.5`` survive as one token. Idempotent.
    """
    s = s.lower()
    out: list[str] = []
    for i, ch in enumerate(s):
        if ch in PUNCTUATION:
            if ch == "." and _is_digit(s, i - 1) and _is_digit(s, i + 1):
                out.append(ch)
            else:
                out.append(f" {ch} ")
        else:
            out.append(ch)
    return " ".join("".join(out).split())


def _is_digit(s: str, i: int) -> bool:
    return 0 <= i < len(s) and s[i].isdigit()


def encode(tokens: Sequence[str], vocab: Vocab, add_bos_eos: bool = False) -> list[int]:
    """Map tokens to ids; unknown tokens become UNK."""
    ids = [vocab.id_of(t) for t in tokens]
    if add_bos_eos:
        return [BOS_ID] + ids + [EOS_ID]
    return ids


# --- equation ---------------------------------------------------------

_SYMBOLS = set("=+-*/()")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT | NUMBER | SYMBOL | END
    text: str
    offset: int


def _lex(s: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token("SYMBOL", ch, i))
            i += 1
            continue
        if ch.isascii() and ch.isalpha():
            j = i + 1
            while j < n and s[j].isascii() and s[j].isalnum():
                j += 1
            tokens.append(_Token("IDENT", s[i:j].lower(), i))
            i = j
            continue
        if ch.isascii() and ch.isdigit():
            j = i + 1
            while j < n and s[j].isascii() and s[j].isdigit():
                j += 1
            if j < n - 1 and s[j] == "." and s[j + 1].isascii() and s[j + 1].isdigit():
                j += 2
                while j < n and s[j].isascii() and s[j].isdigit():
                    j += 1
            tokens.append(_Token("NUMBER", s[i:j], i))
            i = j
            continue
        raise UnexpectedToken(f"unexpected character {ch!r}", offset=i)
    tokens.append(_Token("END", "", n))
    return tokens


# --- parser -----------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def parse_equation(self) -> Equation:
        if self.cur.kind != "IDENT":
            raise UnexpectedToken(
                f"expected a variable name, found {self.cur.text or 'end of input'!r}",
                offset=self.cur.offset,
            )
        variable = self.advance().text
        if not (self.cur.kind == "SYMBOL" and self.cur.text == "="):
            raise MissingEquals("expected '=' after the variable", offset=self.cur.offset)
        self.advance()
        if self.cur.kind == "END":
            raise EmptyExpression("nothing after '='", offset=self.cur.offset)
        rhs = self.parse_expr()
        if self.cur.kind != "END":
            if self.cur.text == ")":
                raise ParenMismatch("unmatched ')'", offset=self.cur.offset)
            raise TrailingInput(f"unexpected trailing {self.cur.text!r}", offset=self.cur.offset)
        return Equation(variable=variable, rhs=rhs)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.cur.kind == "SYMBOL" and self.cur.text in "+-":
            op_tok = self.advance()
            right = self.parse_term()
            op = Op.ADD if op_tok.text == "+" else Op.SUB
            node = BinOp(op, node, right, pos=op_tok.offset)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.cur.kind == "SYMBOL" and self.cur.text in "*/":
            op_tok = self.advance()
            right = self.parse_factor()
            op = Op.MUL if op_tok.text == "*" else Op.DIV
            node = BinOp(op, node, right, pos=op_tok.offset)
        return node

    def parse_factor(self) -> Expr:
        tok = self.cur
        if tok.kind == "NUMBER":
            self.advance()
            return Num(Fraction(tok.text), pos=tok.offset)
        if tok.kind == "SYMBOL" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            if not (self.cur.kind == "SYMBOL" and self.cur.text == ")"):
                raise ParenMismatch("expected ')'", offset=self.cur.offset)
            self.advance()
            return node
        if tok.kind == "END":
            raise UnexpectedToken("unexpected end of input", offset=tok.offset)
        raise UnexpectedToken(f"unexpected {tok.text!r}", offset=tok.offset)


def parse_equation(s: str) -> Equation:
    """Parse ``<variable> = <expression>`` into an :class:`Equation`.

    Bengali digits are accepted and normalized to ASCII before lexing (the
    character-wise mapping keeps error offsets aligned with the input).
    """
    normalized = normalize_digits(s, "bengali_to_ascii")
    tokens = _lex(normalized)
    if not any(t.kind == "SYMBOL" and t.text == "=" for t in tokens):
        raise MissingEquals("no '=' in input", offset=len(s))
    return _Parser(tokens).parse_equation()


def format_number(value: Fraction) -> str:
    """Render a rational as an integer or exact decimal literal.

    Only non-negative rationals with a terminating decimal expansion are
    representable in the grammar; anything else raises ``ValueError``.
    """
    if value < 0:
        raise ValueError(f"negative literal {value} is not representable")
    if value.denominator == 1:
        return str(value.numerator)
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

    def render(e: Expr) -> None:
        if isinstance(e, Num):
            out.append(format_number(e.value))
            return
        prec = _PRECEDENCE[e.op]
        # Left-associative grammar: a right child at equal precedence would
        # rebind on reparse, so it keeps its parentheses.
        _child(e.left, needs_parens=_precedence(e.left) < prec)
        out.append(e.op.symbol)
        _child(e.right, needs_parens=_precedence(e.right) <= prec)

    def _child(e: Expr, needs_parens: bool) -> None:
        if needs_parens:
            out.append("(")
            render(e)
            out.append(")")
        else:
            render(e)

    render(eq.rhs)
    return " ".join(out)

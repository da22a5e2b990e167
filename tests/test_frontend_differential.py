"""Differential tests: the packaged tokenizer, lexer, parser, number printer
and encoder against the character-at-a-time versions kept in
``frontend_oracle``. Outputs must be equal; a failure must have the same
exception type, message and offset."""

from fractions import Fraction

import frontend_oracle as oracle
import pytest
from hypothesis import given, settings, strategies as st

from mwp import equation, preprocess, synth
from mwp.preprocess import build_vocab, tokenize

WHITESPACE = " \t\n\r\x0b\x0c\x1c\xa0 　"
ALPHABET = (
    "0123456789" + preprocess.BENGALI_DIGITS + "²³¹" + preprocess.DANDA + ".,?()+-*/=" + "xyzXYZabİK" + "আমকলাটি"
    + WHITESPACE
)
text = st.text(alphabet=ALPHABET, max_size=40)

# whole tokens and near-tokens, so that joined strings reach every parse path
PIECES = [
    "x", "X", "y1", "ab2c", "=", "+", "-", "*", "/", "(", ")", "7", "12", "007", "3.5", "0.25", "১২", "৩.৫",
    "1.", ".5", "1..2", "²", "।", "?", " ", "\t", "আম", "İ",
]
piece_string = st.lists(st.sampled_from(PIECES), max_size=16).map("".join)

number = st.from_regex(r"[0-9০-৯]{1,3}(\.[0-9০-৯]{1,2})?", fullmatch=True)
space = st.sampled_from(["", " ", "  ", "\t"])
expression = st.recursive(
    number,
    lambda inner: st.one_of(
        st.tuples(inner, space, st.sampled_from("+-*/"), space, inner).map("".join),
        inner.map(lambda e: f"({e})"),
    ),
    max_leaves=6,
)
valid_equation = st.tuples(st.sampled_from(["x", "X", "y1"]), space, expression).map(lambda t: f"{t[0]}{t[1]}={t[2]}")


@st.composite
def edited_equation(draw):
    """A valid equation with up to two pieces inserted or characters deleted."""
    s = draw(valid_equation)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(s)))
        if draw(st.booleans()):
            s = s[:at] + draw(st.sampled_from(PIECES)) + s[at:]
        else:
            s = s[:at] + s[at + 1 :]
    return s


near_equation = st.one_of(piece_string, edited_equation())


def outcome(fn, *args):
    """The value, or the exception's type, message and offset."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # any exception type must match the oracle's
        return ("raised", type(exc), str(exc), getattr(exc, "offset", None))


def tree(e):
    """An expression as nested tuples that include the source offsets."""
    if isinstance(e, equation.Num):
        return (e.value, e.pos)
    return (e.op, e.pos, tree(e.left), tree(e.right))


def parsed(parse, canonical):
    def run(s):
        eq = parse(s)
        return eq.variable, tree(eq.rhs), canonical(eq)

    return run


def assert_same_front_end(s: str) -> None:
    assert outcome(lambda t: " ".join(tokenize(t)), s) == outcome(oracle.normalize_text, s)
    assert tokenize(s) == oracle.normalize_text(s).split()
    new_tokens = outcome(equation._lex, s)
    old_tokens = outcome(lambda t: [(k.kind, k.text, k.offset) for k in oracle._lex(t)], s)
    assert new_tokens == old_tokens
    new = outcome(parsed(equation.parse_equation, equation.to_canonical_string), s)
    old = outcome(parsed(oracle.parse_equation, oracle.to_canonical_string), s)
    assert new == old


@settings(max_examples=400, deadline=None)
@given(text)
def test_random_strings_match_oracle(s):
    assert_same_front_end(s)


@settings(max_examples=400, deadline=None)
@given(near_equation)
def test_near_equations_match_oracle(s):
    assert_same_front_end(s)


@settings(max_examples=300, deadline=None)
@given(valid_equation)
def test_canonical_string_tokens_are_its_split(s):
    # training targets, target vocabularies and BLEU split canonical strings
    # on spaces in place of running the tokenizer over them again
    c = equation.to_canonical_string(equation.parse_equation(s))
    assert tokenize(c) == c.split()


def test_digit_check_is_str_isdigit():
    # '²' and Bengali digits are digits to str.isdigit, so their periods stay
    for s in ("2².5", "².²", "৩.৫", "1.²", "a.5", "5.", ".5", "1..2"):
        assert " ".join(tokenize(s)) == oracle.normalize_text(s)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.fractions(),
        st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from([1, 2, 4, 5, 8, 10, 16, 20, 3, 7, 1000])),
    )
)
def test_format_number_matches_oracle(value):
    assert outcome(equation.format_number, value) == outcome(oracle.format_number, value)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(["আম", "কলা", "?", "৩", "x", "="]), max_size=6),
    st.lists(st.sampled_from(["আম", "কলা", "?", "৩", "x", "=", "zzz", "<unk>", "<pad>", ""]), max_size=12),
    st.booleans(),
)
def test_encode_matches_oracle(vocab_tokens, tokens, add_bos_eos):
    vocab = preprocess.Vocab(list(dict.fromkeys(vocab_tokens)))
    assert preprocess.encode(tokens, vocab, add_bos_eos) == oracle.encode(tokens, vocab, add_bos_eos)


@pytest.fixture(scope="module")
def c05_records():
    """The records of the c05 split (datagen --n 1000 --seed 11)."""
    return synth.generate_synthetic(1000, 11)


def test_every_c05_record_matches_oracle(c05_records):
    canonical = []
    for rec in c05_records:
        assert_same_front_end(rec.problem_text)
        assert_same_front_end(rec.equation_text)
        canonical.append(equation.to_canonical_string(equation.parse_equation(rec.equation_text)))
    src_vocab = build_vocab(tokenize(r.problem_text) for r in c05_records)
    tgt_vocab = build_vocab(tokenize(c) for c in canonical)
    for rec, c in zip(c05_records, canonical):
        problem = tokenize(rec.problem_text)
        assert preprocess.encode(problem, src_vocab) == oracle.encode(problem, src_vocab)
        target = tokenize(c)
        assert preprocess.encode(target, tgt_vocab, True) == oracle.encode(target, tgt_vocab, True)

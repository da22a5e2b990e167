"""Parser, evaluator, and canonical printer tests.

The evaluator is checked against an independent oracle: expressions are
rendered as fully parenthesized Python source and evaluated with Fraction
arithmetic by the interpreter itself, so the two routes share no code.
"""

import random
from fractions import Fraction

import pytest

from mwp.equation import (
    MAX_DEPTH,
    BinOp,
    DivisionByZero,
    EmptyExpression,
    Equation,
    MissingEquals,
    Num,
    Op,
    ParenMismatch,
    ParseError,
    TooDeep,
    TrailingInput,
    UnexpectedToken,
    count_operators,
    evaluate,
    format_number,
    parse_equation,
    solve,
    to_canonical_string,
)


def num(x) -> Num:
    return Num(Fraction(x))


# --- independent oracle -----------------------------------------------------


def oracle_eval(expr) -> Fraction:
    """Evaluate by compiling to Python source, not by walking with our code."""

    def render(e) -> str:
        if isinstance(e, Num):
            return f"F({e.value.numerator},{e.value.denominator})"
        return f"({render(e.left)} {e.op.symbol} {render(e.right)})"

    return eval(render(expr), {"F": Fraction})


def random_expr(rng: random.Random, depth: int):
    """Random printable AST: literals are ints or short terminating decimals."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return num(rng.randrange(0, 1000))
        return num(Fraction(f"{rng.randrange(0, 100)}.{rng.randrange(0, 100):02d}"))
    op = rng.choice(list(Op))
    return BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


# --- parsing ----------------------------------------------------------------


def test_parse_simple():
    eq = parse_equation("x = 3 + 4")
    assert eq == Equation("x", BinOp(Op.ADD, num(3), num(4)))


def test_parse_precedence():
    eq = parse_equation("x = 3 + 4 * 2")
    assert eq.rhs == BinOp(Op.ADD, num(3), BinOp(Op.MUL, num(4), num(2)))
    assert solve(eq) == 11


def test_parse_left_associative():
    assert solve(parse_equation("x = 8 - 3 - 2")) == 3
    assert solve(parse_equation("x = 12 / 2 / 3")) == 2


def test_parse_parentheses():
    assert solve(parse_equation("x = 8 - (3 - 2)")) == 7
    assert solve(parse_equation("x = (1 + 2) * 3")) == 9


def test_parse_without_spaces():
    assert solve(parse_equation("x=(7-3)")) == 4


def test_parse_bengali_digits():
    eq = parse_equation("x = ৪ + ১")
    assert solve(eq) == 5
    assert to_canonical_string(eq) == "x = 4 + 1"


def test_parse_decimals_exact():
    assert solve(parse_equation("x = 1.5 + 2.25")) == Fraction(15, 4)
    assert solve(parse_equation("x = 0.1")) == Fraction(1, 10)


def test_parse_variable_case_insensitive():
    assert parse_equation("X = 1").variable == "x"
    assert parse_equation("Total = 2").variable == "total"


def test_division_stays_exact():
    assert solve(parse_equation("x = 1 / 3")) == Fraction(1, 3)


@pytest.mark.parametrize(
    "text, exc",
    [
        ("x + 3", MissingEquals),
        ("5 = 3", UnexpectedToken),
        ("x =", EmptyExpression),
        ("x = ()", UnexpectedToken),
        ("x = (1 + 2", ParenMismatch),
        ("x = 1 + 2)", ParenMismatch),
        ("x = 1 2", TrailingInput),
        ("x = @", UnexpectedToken),
        ("x = 1 +", UnexpectedToken),
        ("", MissingEquals),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_equation(text)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_equation("x = 1 + @")
    assert err.value.offset == 8
    with pytest.raises(MissingEquals) as err:
        parse_equation("x + 3")
    assert err.value.offset == len("x + 3")


def test_errors_carry_offset_in_message():
    with pytest.raises(ParseError, match=r"offset"):
        parse_equation("x = 1 + @")


def test_nesting_up_to_the_bound_parses():
    eq = parse_equation("x = " + "(" * MAX_DEPTH + "1 + 2" + ")" * MAX_DEPTH)
    assert solve(eq) == 3
    assert to_canonical_string(eq) == "x = 1 + 2"
    # the bound counts parentheses open at once, not parentheses in all
    assert solve(parse_equation("x = " + " + ".join(["(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH] * 3))) == 3


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5_000])
def test_nesting_past_the_bound_is_a_parse_error(depth):
    # "x = " and then depth opening parentheses: the one past the bound is at offset 4 + MAX_DEPTH
    with pytest.raises(TooDeep, match=f"more than {MAX_DEPTH} nested parentheses") as err:
        parse_equation("x = " + "(" * depth + "1" + ")" * depth)
    assert err.value.offset == 4 + MAX_DEPTH
    assert isinstance(err.value, ParseError)


# --- evaluation -------------------------------------------------------------


def test_divide_by_zero_literal():
    with pytest.raises(DivisionByZero):
        solve(parse_equation("x = 5 / 0"))


def test_divide_by_zero_subexpression():
    with pytest.raises(DivisionByZero):
        solve(parse_equation("x = 5 / (3 - 3)"))


def test_division_by_zero_has_position():
    with pytest.raises(DivisionByZero) as err:
        parse_eq = parse_equation("x = 5 / 0")
        evaluate(parse_eq.rhs)
    assert err.value.offset == 6
    # with two, the leftmost division is reported, as operands are evaluated left first
    with pytest.raises(DivisionByZero) as err:
        solve(parse_equation("x = 1 / 0 + 2 / 0"))
    assert err.value.offset == 6


def test_evaluate_matches_oracle_bulk():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(2000):
        expr = random_expr(rng, depth=4)
        try:
            expected = oracle_eval(expr)
        except ZeroDivisionError:
            with pytest.raises(DivisionByZero):
                evaluate(expr)
            continue
        assert evaluate(expr) == expected
        checked += 1
    assert checked > 1500


def test_count_operators():
    eq = parse_equation("x = 1 + 2 * 3 - 4 / 5")
    assert count_operators(eq.rhs) == {Op.ADD: 1, Op.SUB: 1, Op.MUL: 1, Op.DIV: 1}
    assert count_operators(parse_equation("x = 7").rhs) == {op: 0 for op in Op}


def test_tree_walks_take_a_10000_term_sum():
    # the walks keep an explicit stack, so operand count is not bounded by the recursion limit
    eq = parse_equation("x = " + " + ".join(["1"] * 5_000) + " - " + " - ".join(["2"] * 5_000))
    assert solve(eq) == 5_000 - 2 * 5_000
    assert count_operators(eq.rhs) == {Op.ADD: 4_999, Op.SUB: 5_000, Op.MUL: 0, Op.DIV: 0}
    assert to_canonical_string(eq) == "x = " + " + ".join(["1"] * 5_000) + " - " + " - ".join(["2"] * 5_000)


def test_tree_walks_take_a_deep_right_chain():
    # 10,000 nested right operands: 1 - (1 - (... - 1 / 0)) divides by zero at the bottom
    expr = BinOp(Op.DIV, num(1), num(0), pos=7)
    for _ in range(10_000):
        expr = BinOp(Op.SUB, num(1), expr)
    with pytest.raises(DivisionByZero) as err:
        evaluate(expr)
    assert err.value.offset == 7
    assert count_operators(expr) == {Op.ADD: 0, Op.SUB: 10_000, Op.MUL: 0, Op.DIV: 1}
    # the division binds tighter than the innermost minus, so it needs no parentheses
    assert to_canonical_string(Equation("x", expr)) == "x = " + "1 - ( " * 9_999 + "1 - 1 / 0" + " )" * 9_999


# --- formatting -------------------------------------------------------------


def test_format_number():
    assert format_number(Fraction(4)) == "4"
    assert format_number(Fraction(7, 2)) == "3.5"
    assert format_number(Fraction(1, 8)) == "0.125"
    assert format_number(Fraction(0)) == "0"
    assert format_number(Fraction(12, 10)) == "1.2"


def test_format_number_rejects():
    with pytest.raises(ValueError):
        format_number(Fraction(-1))
    with pytest.raises(ValueError):
        format_number(Fraction(1, 3))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x=1+2*3", "x = 1 + 2 * 3"),
        ("x=(1+2)*3", "x = ( 1 + 2 ) * 3"),
        ("x=1-(2-3)", "x = 1 - ( 2 - 3 )"),
        ("x=(1-2)-3", "x = 1 - 2 - 3"),
        ("x=2*(3/4)", "x = 2 * ( 3 / 4 )"),
        ("x=(2*3)/4", "x = 2 * 3 / 4"),
        ("x=((7))", "x = 7"),
        ("X = ১.৫ + 2", "x = 1.5 + 2"),
    ],
)
def test_canonical_string(text, expected):
    assert to_canonical_string(parse_equation(text)) == expected


def test_canonical_round_trip_bulk():
    rng = random.Random(99)
    for _ in range(2000):
        expr = random_expr(rng, depth=4)
        eq = Equation("x", expr)
        text = to_canonical_string(eq)
        assert parse_equation(text) == eq

"""Synthetic word-problem generator tests."""

import hashlib
from fractions import Fraction

import pytest

from mwp.cli import main
from mwp.dataset import EquationClass, classify_equation, summarize
from mwp.equation import parse_equation, solve
from mwp.preprocess import DANDA, tokenize
from mwp.synth import DEFAULT_PROFILE, generate_synthetic


def test_default_profile_counts_n1000():
    counts = summarize(generate_synthetic(1000, seed=11))
    assert counts == {
        "add": 176,
        "sub": 322,
        "mul": 161,
        "div": 316,
        "complex": 25,
        "noop": 0,
        "total": 1000,
    }


def test_profile_sums_to_one():
    assert sum(Fraction(str(v)) for v in DEFAULT_PROFILE.values()) == 1


def test_single_class_profile():
    records = generate_synthetic(5, seed=0, profile={"add": 1.0})
    for rec in records:
        assert classify_equation(parse_equation(rec.equation_text)) == EquationClass.SIMPLE_ADD
        assert rec.equation_text.count("+") == 1


def test_deterministic_per_seed():
    assert generate_synthetic(100, seed=3) == generate_synthetic(100, seed=3)
    a = generate_synthetic(100, seed=3)
    b = generate_synthetic(100, seed=4)
    assert [r.problem_text for r in a] != [r.problem_text for r in b]


def test_answers_match_equations_exactly():
    for rec in generate_synthetic(200, seed=9):
        assert tokenize(rec.problem_text)
        assert rec.answer == solve(parse_equation(rec.equation_text))


def test_integer_division_by_default():
    records = generate_synthetic(400, seed=13)
    for rec in records:
        assert rec.answer is not None and rec.answer.denominator == 1


def test_allow_fractions_reaches_non_integers():
    records = generate_synthetic(400, seed=13, allow_fractions=True)
    assert any(rec.answer is not None and rec.answer.denominator != 1 for rec in records)


def test_operands_stay_in_range():
    for rec in generate_synthetic(500, seed=21):
        rhs = rec.equation_text.split("=", 1)[1]
        numbers = [int(tok) for tok in rhs.replace("(", " ").replace(")", " ").split() if tok.isdigit()]
        assert numbers and all(1 <= v <= 99 for v in numbers), rec.equation_text


def test_problem_text_is_bengali_with_danda():
    for rec in generate_synthetic(50, seed=2):
        assert DANDA in rec.problem_text
        assert not any(ch.isascii() and ch.isdigit() for ch in rec.problem_text)
        tokens = tokenize(rec.problem_text)
        assert DANDA in tokens and "?" in tokens


def test_ids_are_unique_and_padded():
    records = generate_synthetic(120, seed=1)
    ids = [rec.id for rec in records]
    assert len(set(ids)) == len(ids)
    assert ids[0] == "syn-001" and ids[-1] == "syn-120"


def test_n_must_be_positive():
    with pytest.raises(ValueError):
        generate_synthetic(0, seed=0)


def test_unknown_profile_key():
    with pytest.raises(ValueError, match="unknown equation class"):
        generate_synthetic(5, seed=0, profile={"exp": 1.0})


def test_profile_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        generate_synthetic(5, seed=0, profile={"add": 0.5, "sub": 0.4})


def test_profile_refuses_negative_proportion():
    # 1.5 and -0.5 sum to 1, but a class cannot take a negative share
    with pytest.raises(ValueError, match=">= 0.*sub=-0.5"):
        generate_synthetic(10, seed=1, profile={"add": "1.5", "sub": "-0.5"})


def test_profile_allows_zero_proportion():
    records = generate_synthetic(10, seed=1, profile={"add": 1.0, "sub": 0.0})
    assert summarize(records)["add"] == 10


@pytest.mark.parametrize("profile, named", [
    ([("sub", "1"), ("sub", "0"), ("add", "1")], "sub"),  # a later sub=0 used to replace sub=1
    ({"add": 0, "ADD": 1, "sub": 0}, "add"),  # keys name classes case-insensitively
], ids=["same-key", "same-key-other-case"])
def test_profile_refuses_a_class_named_twice(profile, named):
    with pytest.raises(ValueError) as err:
        generate_synthetic(10, seed=1, profile=profile)
    assert str(err.value) == f"profile names class {named!r} twice"


def test_profile_refuses_zero_denominator():
    with pytest.raises(ValueError, match="add=1/0"):
        generate_synthetic(10, seed=1, profile={"add": "1/0"})


# sha256 of the file `mwp datagen` writes, taken before the operand templates
# became one table: any change to a template's text, operands or RNG draw
# order changes these bytes
GOLDEN_DATAGEN = [
    (["--n", "1000", "--seed", "11"], "6779c4299cae498d8c38b1d67807284c740d7962f3dc6b3d3959bc094026bd17"),
    (["--n", "500", "--seed", "5", "--allow-fractions", "--profile",
      "add=0.2,sub=0.3,mul=0.2,div=0.25,complex=0.05"],
     "0225c3aafaa4fd8bd07a7842fdffa5a65dffb7083e8e9bc5431babe62d02bb48"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_DATAGEN, ids=["default-n1000-seed11", "fractions-n500-seed5"])
def test_datagen_bytes_are_golden(tmp_path, capsys, args, digest):
    out = tmp_path / "data.jsonl"
    assert main(["datagen", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

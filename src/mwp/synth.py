"""Deterministic synthetic Bengali word-problem generator.

Each record is built from a sentence template with randomized operands and
lexical slots (place and item words). Numbers render in Bengali digits
inside the problem text and in ASCII digits inside the gold equation; the
gold answer is computed exactly. Operands stay within 1..99 so a small
model can memorize the numeral vocabulary, divisions come out even unless
fractions are enabled, and every lexical slot is a single token so each
template keeps its numerals at fixed token positions, keeping the copy
task learnable at desk scale.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from . import equation
from .dataset import EquationClass, MwpRecord, allocate_counts
from .preprocess import normalize_digits


def _bn(n: int) -> str:
    return normalize_digits(str(n), "ascii_to_bengali")


# Lexical slots: a place in the locative ("in the box") with its bare form,
# and the counted item. One token each, so numeral positions never shift.
_PLACES = (
    ("বাক্সে", "বাক্স"),
    ("ঝুড়িতে", "ঝুড়ি"),
    ("দোকানে", "দোকান"),
    ("ব্যাগে", "ব্যাগ"),
    ("থলিতে", "থলি"),
)
_ITEMS = ("আম", "কলা", "লিচু", "ডিম", "বই", "ফুল")

# Two-digit operands share one small pool so each numeral token recurs often
# enough in a desk-sized corpus for a small model to learn its identity.
_BIG_LO, _BIG_HI = 10, 49


def _lex(rng: random.Random) -> tuple[str, str, str]:
    loc, bare = rng.choice(_PLACES)
    return loc, bare, rng.choice(_ITEMS)


def _div_pair(rng: random.Random, allow_fractions: bool) -> tuple[int, int]:
    b = rng.randint(2, 9)
    if allow_fractions:
        return rng.randint(_BIG_LO, _BIG_HI), b
    q_lo = -(-_BIG_LO // b)  # smallest quotient keeping the dividend two-digit
    return b * rng.randint(q_lo, _BIG_HI // b), b


def _template(text: str, rhs: str) -> Callable[[random.Random, bool], tuple[str, str]]:
    """The build function of format strings over the slots ``loc``, ``bare``
    and ``item`` and the operands, drawn after the slots: a two-digit ``a``,
    a single-digit ``b`` and, when ``rhs`` names it, a single-digit ``c``."""
    def build(rng: random.Random, _frac: bool) -> tuple[str, str]:
        loc, bare, item = _lex(rng)
        nums = {"a": rng.randint(_BIG_LO, _BIG_HI), "b": rng.randint(2, 9)}
        if "{c}" in rhs:
            nums["c"] = rng.randint(2, 9)
        digits = {k: _bn(v) for k, v in nums.items()}
        return text.format(loc=loc, bare=bare, item=item, **digits), rhs.format(**nums)

    return build


def _build_div(rng: random.Random, allow_fractions: bool) -> tuple[str, str]:
    loc, _, item = _lex(rng)
    a, b = _div_pair(rng, allow_fractions)
    text = f"{loc} {_bn(a)} টি {item} ছিল। সেগুলো {_bn(b)} জন শিশুকে সমান ভাগ করা হলো। প্রত্যেকে কতটি {item}?"
    return text, f"{a} / {b}"


def _build_add_div(rng: random.Random, _frac: bool) -> tuple[str, str]:
    loc, _, item = _lex(rng)
    c = rng.randint(2, 9)
    a = rng.randint(_BIG_LO, _BIG_HI)
    lo = (a + c + 1) // c + 1  # keep b = c*k - a single-digit-free, i.e. >= 2
    b = c * rng.randint(lo, (a + _BIG_HI) // c) - a
    text = (
        f"{loc} {_bn(a)} টি এবং {_bn(b)} টা {item} ছিল। সেগুলো {_bn(c)} জন"
        f" শিশুকে সমান ভাগ করা হলো। প্রত্যেকে কতটি {item}?"
    )
    return text, f"( {a} + {b} ) / {c}"


# Each build function draws operands and lexical slots and returns (problem
# text, equation rhs). The key order is the order classes are allocated in.
_TEMPLATES: dict[EquationClass, list[Callable[[random.Random, bool], tuple[str, str]]]] = {
    EquationClass.SIMPLE_ADD: [_template("{loc} {a} টি {item} আছে। আরও {b} টা {item} রাখা হলো। মোট কতটি {item}?", "{a} + {b}")],
    EquationClass.SIMPLE_SUB: [_template("{loc} {a} টি {item} ছিল। তারপর {b} টা {item} নেওয়া হলো। এখন কতটি {item}?", "{a} - {b}")],
    EquationClass.SIMPLE_MUL: [_template("{loc} {a} টা {bare} আছে। প্রতিটিতে {b} টি {item} ধরে। মোট কতটি {item}?", "{a} * {b}")],
    EquationClass.SIMPLE_DIV: [_build_div],
    EquationClass.COMPLEX: [
        _template("{loc} {a} টি {item} ছিল। আরও {b} টা {item} এল এবং {c} টি {item} গেল। এখন কতটি {item}?", "{a} + {b} - {c}"),
        _template("{loc} {a} টা {bare} আছে। প্রতিটিতে {b} টি {item} ধরে এবং {c} টি {item} গেল। এখন কতটি {item}?", "{a} * {b} - {c}"),
        _build_add_div,
    ],
}

# Class mix of the reference corpus this generator stands in for.
DEFAULT_PROFILE: Mapping[str, float] = {
    "add": 0.1761,
    "sub": 0.3217,
    "mul": 0.1610,
    "div": 0.3164,
    "complex": 0.0248,
}

_CLASS_BY_KEY = {cls.value: cls for cls in _TEMPLATES}


def _normalize_profile(profile: Mapping | Iterable[tuple]) -> dict[EquationClass, Fraction]:
    out: dict[EquationClass, Fraction] = {}
    for key, value in profile.items() if isinstance(profile, Mapping) else profile:
        cls = _CLASS_BY_KEY.get(str(key).lower())
        if cls is None:
            raise ValueError(f"unknown equation class {key!r}")
        if cls in out:  # a later value would silently replace the first
            raise ValueError(f"profile names class {cls.value!r} twice")
        try:
            out[cls] = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"bad proportion {key}={value}: {exc}") from exc
        if out[cls] < 0:
            raise ValueError(f"profile proportions must be >= 0, got {key}={value}")
    if sum(out.values()) != 1:
        raise ValueError("profile proportions must sum to 1")
    return out


def generate_synthetic(
    n: int,
    seed: int,
    profile: Mapping | Iterable[tuple] = DEFAULT_PROFILE,
    allow_fractions: bool = False,
) -> list[MwpRecord]:
    """Generate ``n`` records whose class mix matches ``profile`` (a mapping or pairs, naming
    each class once) up to largest-remainder rounding. Byte-identical output for a given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    props = _normalize_profile(profile)
    classes = [cls for cls in _TEMPLATES if cls in props]
    counts = allocate_counts(n, [props[cls] for cls in classes])
    labels: list[EquationClass] = []
    for cls, count in zip(classes, counts):
        labels.extend([cls] * count)
    rng = random.Random(seed)
    rng.shuffle(labels)

    width = len(str(n))
    records: list[MwpRecord] = []
    for i, cls in enumerate(labels, start=1):
        problem_text, rhs = rng.choice(_TEMPLATES[cls])(rng, allow_fractions)
        eq_text = f"x = {rhs}"
        answer = equation.solve(equation.parse_equation(eq_text))
        records.append(
            MwpRecord(
                id=f"syn-{i:0{width}d}",
                problem_text=problem_text,
                equation_text=eq_text,
                answer=answer,
            )
        )
    return records

"""Dataset IO, classification, and split tests."""

from fractions import Fraction

import pytest

from mwp.dataset import (
    DatasetError,
    EquationClass,
    MwpRecord,
    allocate_counts,
    classify_equation,
    load_dataset,
    save_dataset,
    split_dataset,
    summarize,
)
from mwp.equation import parse_equation


def rec(i, problem="আমার ৫টি আম আছে। মোট কত?", eq="x = 5"):
    return MwpRecord(str(i), problem, eq)


# --- file formats ------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    records = [
        MwpRecord("a", "১০টি আম", "x = 10", Fraction(10)),
        MwpRecord("b", "quote \" and \\ here", "x = 1 + 2", None),
    ]
    path = tmp_path / "d.jsonl"
    save_dataset(records, path)
    loaded = load_dataset(path)
    assert loaded == records


def test_jsonl_keeps_bengali_unescaped(tmp_path):
    path = tmp_path / "d.jsonl"
    save_dataset([rec("a")], path)
    assert "আম" in path.read_text(encoding="utf-8")


def test_jsonl_missing_id_defaults_to_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"problem": "p", "equation": "x = 1"}\n', encoding="utf-8")
    assert load_dataset(path)[0].id == "1"


def test_jsonl_answer_parsing(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "a", "problem": "p", "equation": "x = 1", "answer": 3}\n'
        '{"id": "b", "problem": "p", "equation": "x = 1", "answer": "3.5"}\n'
        '{"id": "c", "problem": "p", "equation": "x = 1", "answer": 0.25}\n'
        '{"id": "d", "problem": "p", "equation": "x = 1"}\n',
        encoding="utf-8",
    )
    answers = [r.answer for r in load_dataset(path)]
    assert answers == [Fraction(3), Fraction(7, 2), Fraction(1, 4), None]


def test_jsonl_blank_lines_skipped(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('\n{"problem": "p", "equation": "x = 1"}\n\n', encoding="utf-8")
    assert len(load_dataset(path)) == 1


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("not json", "invalid JSON"),
        ('["list"]', "'problem' and 'equation'"),
        ('{"problem": "p"}', "'problem' and 'equation'"),
        ('{"problem": "p", "equation": "x=1", "answer": true}', "bad answer"),
        ('{"problem": "p", "equation": "x=1", "answer": [1]}', "bad answer"),
        ('{"problem": {"a": 1}, "equation": "x=1"}', "line 1: 'problem' and 'equation' must be strings"),
        ('{"problem": "p", "equation": ["x = 2"]}', "line 1: 'problem' and 'equation' must be strings"),
        ('{"problem": 7, "equation": null}', "must be strings"),
    ],
)
def test_jsonl_malformed_lines(tmp_path, line, fragment):
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=fragment):
        load_dataset(path)


def test_jsonl_duplicate_id(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "a", "problem": "p", "equation": "x=1"}\n'
        '{"id": "a", "problem": "q", "equation": "x=2"}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetError, match="line 2.*duplicate id"):
        load_dataset(path)


def test_tsv_load(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("৫টি আম\tx = 5\nকত?\tx = 1 + 2\n", encoding="utf-8")
    loaded = load_dataset(path, format="tsv")
    assert [r.problem_text for r in loaded] == ["৫টি আম", "কত?"]
    assert [r.equation_text for r in loaded] == ["x = 5", "x = 1 + 2"]
    assert [r.id for r in loaded] == ["1", "2"]


def test_tsv_wrong_column_count(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("only-one-column\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1"):
        load_dataset(path, format="tsv")


def test_non_utf8_file_is_a_data_error_naming_it(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"\xff" + '{"problem": "p", "equation": "x = 1"}\n'.encode())
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path} is not UTF-8 text: invalid start byte at byte 0"


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        load_dataset(tmp_path / "d.csv", format="csv")


# --- classification -----------------------------------------------------------


@pytest.mark.parametrize(
    "eq, expected",
    [
        ("x = 2 + 3", EquationClass.SIMPLE_ADD),
        ("x = 9 - 4", EquationClass.SIMPLE_SUB),
        ("x = 2 * 3", EquationClass.SIMPLE_MUL),
        ("x = 8 / 2", EquationClass.SIMPLE_DIV),
        ("x = 2 + 3 * 4", EquationClass.COMPLEX),
        ("x = (1 + 2) / 3", EquationClass.COMPLEX),
        ("x = 7", EquationClass.NOOP),
    ],
)
def test_classify(eq, expected):
    assert classify_equation(parse_equation(eq)) == expected


def test_summarize_counts():
    records = [
        rec("a", eq="x = 1 + 2"),
        rec("b", eq="x = 1 + 3"),
        rec("c", eq="x = 6 / 2"),
        rec("d", eq="x = 1 + 2 * 3"),
    ]
    counts = summarize(records)
    assert counts == {"add": 2, "sub": 0, "mul": 0, "div": 1, "complex": 1, "noop": 0, "total": 4}


def test_summarize_rejects_unparseable():
    with pytest.raises(DatasetError, match="record 'a'"):
        summarize([rec("a", eq="x = ")])


# --- splitting -------------------------------------------------------------------


def test_allocate_counts_cases():
    tenths = [Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)]
    assert allocate_counts(1000, tenths) == [800, 100, 100]
    assert allocate_counts(10, tenths) == [8, 1, 1]
    assert allocate_counts(9, tenths) == [7, 1, 1]  # 0.9 remainders beat 0.2
    assert allocate_counts(1, tenths) == [1, 0, 0]
    assert allocate_counts(0, tenths) == [0, 0, 0]
    thirds = [Fraction(1, 3)] * 3
    assert allocate_counts(10, thirds) == [4, 3, 3]


def test_allocate_counts_exhaustive_conservation():
    tenths = [Fraction(8, 10), Fraction(1, 10), Fraction(1, 10)]
    for n in range(0, 200):
        parts = allocate_counts(n, tenths)
        assert sum(parts) == n
        assert all(p >= 0 for p in parts)


def test_split_sizes_and_partition():
    records = [rec(i) for i in range(1000)]
    parts = split_dataset(records, seed=7)
    assert [len(part) for part in parts] == [800, 100, 100]
    ids = [r.id for part in parts for r in part]
    assert sorted(ids, key=int) == [str(i) for i in range(1000)]


def test_split_deterministic():
    records = [rec(i) for i in range(50)]
    a = split_dataset(records, seed=3)
    b = split_dataset(records, seed=3)
    assert [[r.id for r in part] for part in a] == [[r.id for r in part] for part in b]


def test_split_seed_changes_partition():
    records = [rec(i) for i in range(50)]
    a = split_dataset(records, seed=1)
    b = split_dataset(records, seed=2)
    assert [r.id for r in a[0]] != [r.id for r in b[0]]


def test_split_ratio_validation():
    records = [rec(i) for i in range(10)]
    with pytest.raises(ValueError, match="three entries"):
        split_dataset(records, seed=0, ratios=(0.5, 0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(records, seed=0, ratios=(0.5, 0.3, 0.1))
    # the sum is 1, but a part would be empty or negative
    for ratios in [(1.5, -0.25, -0.25), (1, 0, 0)]:
        with pytest.raises(ValueError, match="three positive numbers"):
            split_dataset(records, seed=0, ratios=ratios)
    with pytest.raises(ValueError, match="empty"):
        split_dataset([], seed=0)


def test_split_accepts_float_and_string_ratios():
    records = [rec(i) for i in range(10)]
    parts = split_dataset(records, seed=0, ratios=("1/2", 0.25, "1/4"))
    # remainder tie between validation and test goes to the earlier part
    assert [len(part) for part in parts] == [5, 3, 2]

"""BLEU, solution accuracy, and evaluation report tests."""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bleu_oracle import CASES
from mwp import equation, metrics
from mwp.dataset import MwpRecord
from mwp.metrics import (
    CORRECT,
    MAX_N,
    UNPARSEABLE,
    WRONG,
    _match_counts,
    corpus_bleu,
    evaluate_corpus,
    format_results_table,
    sentence_bleu,
)

# The benchmark's reference computations, read from the file by path. Its
# BLEU clips n-grams by merging sorted lists and multiplies precisions, a
# different algorithm from the packaged one.
ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# --- sentence BLEU -----------------------------------------------------------


@pytest.mark.parametrize("cand, ref", CASES)
def test_sentence_bleu_matches_oracle(cand, ref):
    got = sentence_bleu(cand.split(), ref.split())
    want = oracle.sentence_bleu(cand.split(), ref.split())
    assert got == pytest.approx(want, abs=1e-9)


def test_sentence_bleu_frozen_values():
    assert sentence_bleu("x = 7 - 3".split(), "x = 3 - 7".split()) == pytest.approx(
        0.4272870063962341, abs=1e-9
    )
    assert sentence_bleu("x = 2 + 4".split(), "x = 2 + 3".split()) == pytest.approx(
        0.7521206186172787, abs=1e-9
    )
    assert sentence_bleu("x = 5".split(), "x = 7 - 3".split()) == pytest.approx(
        0.35250657096759425, abs=1e-9
    )


def test_sentence_bleu_identical_is_one():
    assert sentence_bleu(list("abcd"), list("abcd")) == 1.0


def test_sentence_bleu_disjoint_is_zero():
    assert sentence_bleu(["a", "b"], ["c", "d"]) == 0.0


def test_sentence_bleu_empty_candidate_is_zero():
    assert sentence_bleu([], ["a"]) == 0.0


def test_sentence_bleu_in_unit_interval_random():
    rng = random.Random(0)
    alphabet = ["x", "=", "+", "-", "1", "2", "3"]
    for _ in range(500):
        cand = [rng.choice(alphabet) for _ in range(rng.randrange(0, 10))]
        ref = [rng.choice(alphabet) for _ in range(rng.randrange(1, 10))]
        got = sentence_bleu(cand, ref)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(oracle.sentence_bleu(cand, ref), abs=1e-12)


def test_match_counts_equal_naive_clipping():
    # short alphabet and lengths 0-12: repeated grams are clipped; a quarter
    # of the pairs are identical and take the no-counting path
    rng = random.Random(17)
    alphabet = ["x", "=", "1", "+"]
    for i in range(600):
        cand = [rng.choice(alphabet) for _ in range(rng.randrange(0, 13))]
        if i % 4 == 0:
            ref = list(cand)
        else:
            ref = [rng.choice(alphabet) for _ in range(rng.randrange(0, 13))]
        assert _match_counts(cand, ref) == [oracle._matches(cand, ref, n) for n in range(1, MAX_N + 1)]


# --- corpus BLEU -------------------------------------------------------------


def test_corpus_bleu_identical_is_100():
    pairs = [("x = 1 + 2".split(), "x = 1 + 2".split()), (["x"], ["x"])]
    assert corpus_bleu(pairs) == 100.0


def test_corpus_bleu_matches_oracle_random():
    rng = random.Random(1)
    alphabet = ["x", "=", "+", "-", "*", "1", "2", "3", "4"]
    for _ in range(200):
        pairs = []
        for _ in range(rng.randrange(1, 6)):
            cand = [rng.choice(alphabet) for _ in range(rng.randrange(0, 8))]
            ref = [rng.choice(alphabet) for _ in range(rng.randrange(1, 8))]
            pairs.append((cand, ref))
        assert corpus_bleu(pairs) == pytest.approx(oracle.corpus_bleu(pairs), abs=1e-9)


def test_corpus_bleu_zero_when_no_overlap():
    assert corpus_bleu([(["a", "b"], ["c", "d"])]) == 0.0


def test_corpus_bleu_skips_orders_longer_than_candidates():
    # both sides two tokens: orders 3 and 4 have no n-grams and are excluded
    assert corpus_bleu([(["a", "b"], ["a", "b"])]) == 100.0


def test_corpus_bleu_empty_pairs_rejected():
    with pytest.raises(ValueError):
        corpus_bleu([])


# --- corpus evaluation ----------------------------------------------------------


def _records(eqs):
    return [MwpRecord(str(i), f"problem {i}", eq) for i, eq in enumerate(eqs)]


# case: (predictions, gold equations, tolerance, verdicts, solved values); a
# refused input has the expected ValueError message in place of the verdicts
SCORING_CASES = {
    "value_equality_not_surface": (["x = 4"], ["x = 7 - 3"], 0, [CORRECT], ["4"]),
    "mixed_verdicts": (
        ["x = 2 + 3", "x = 6", "x = ", "x = 5 / 0"], ["x = 5"] * 4, 0,
        [CORRECT, WRONG, UNPARSEABLE, UNPARSEABLE], ["5", "6", None, None],
    ),
    "exact_fractions": (["x = 1 / 3", "x = 0.3333"], ["x = 1 / 3"] * 2, 0, [CORRECT, WRONG], ["1/3", "3333/10000"]),
    "bengali_digits": (["x = ৭ - ৩"], ["x = 4"], 0, [CORRECT], ["4"]),
    "tolerance_zero": (["x = 3.01"], ["x = 3"], 0, [WRONG], ["301/100"]),
    "tolerance_string": (["x = 3.01"], ["x = 3"], "1/50", [CORRECT], ["301/100"]),
    "tolerance_fraction": (["x = 3.01"], ["x = 3"], Fraction(1, 100), [CORRECT], ["301/100"]),
    "reference_divides_by_zero": (["x = 1"], ["x = 1 / 0"], 0, "record '0': reference equation does not solve", None),
    "reference_unparseable": (["x = 1", "x = 1"], ["x = 1", "garbage"], 0, "record '1': bad equation", None),
    "empty_corpus": ([], [], 0, "no records to score", None),
}


@pytest.mark.parametrize(
    "predictions, golds, tolerance, verdicts, solved", SCORING_CASES.values(), ids=SCORING_CASES.keys()
)
def test_evaluate_corpus_verdicts(predictions, golds, tolerance, verdicts, solved):
    if isinstance(verdicts, str):
        with pytest.raises(ValueError, match=verdicts):
            evaluate_corpus(predictions, _records(golds), tolerance=tolerance)
        return
    report = evaluate_corpus(predictions, _records(golds), tolerance=tolerance)
    assert [r["verdict"] for r in report["per_record"]] == verdicts
    assert [r["solved_value"] for r in report["per_record"]] == solved
    assert report["solution_accuracy"] == verdicts.count(CORRECT) / len(verdicts)


def test_evaluate_corpus_negative_tolerance_rejected():
    with pytest.raises(ValueError, match="tolerance"):
        evaluate_corpus(["x = 1"], _records(["x = 1"]), tolerance=-1)


def test_evaluate_corpus_gold_predictions_perfect():
    records = _records(["x = 7 - 3", "x = ( 1 + 2 ) / 3", "x = 5"])
    # same equations in denser surface form; canonicalization aligns them
    report = evaluate_corpus(["x=7-3", "x=(1+2)/3", "x=5"], records)
    assert report["corpus_bleu"] == 100.0
    assert report["solution_accuracy"] == 1.0
    assert report["n_records"] == 3
    assert [r["verdict"] for r in report["per_record"]] == [CORRECT] * 3


def test_evaluate_corpus_value_right_surface_reordered():
    report = evaluate_corpus(["x = 3 + 2"], _records(["x = 2 + 3"]))
    record = report["per_record"][0]
    assert record["verdict"] == CORRECT
    assert record["bleu"] == pytest.approx(0.4272870063962341, abs=1e-9)
    assert report["solution_accuracy"] == 1.0
    assert report["corpus_bleu"] < 100.0


def test_evaluate_corpus_bleu_and_accuracy_disagree():
    # value-wrong prediction outscores the value-correct reordering on BLEU
    wrong = evaluate_corpus(["x = 2 + 4"], _records(["x = 2 + 3"]))["per_record"][0]
    right = evaluate_corpus(["x = 3 + 2"], _records(["x = 2 + 3"]))["per_record"][0]
    assert wrong["verdict"] == WRONG
    assert right["verdict"] == CORRECT
    assert wrong["bleu"] > right["bleu"]


def test_evaluate_corpus_unparseable_prediction():
    report = evaluate_corpus(["x = 2 +"], _records(["x = 2 + 3"]))
    record = report["per_record"][0]
    assert record["verdict"] == UNPARSEABLE
    assert record["solved_value"] is None
    assert record["reference_value"] == "5"
    assert report["solution_accuracy"] == 0.0


def test_division_by_zero_prediction_same_verdict_both_ways():
    record = evaluate_corpus(["x=4/0"], _records(["x = 4"]))["per_record"][0]
    assert record["verdict"] == UNPARSEABLE
    assert record["solved_value"] is None
    # it parses, so BLEU tokenizes its canonical form, without the parentheses
    bleu = [evaluate_corpus([p], _records(["x = 4 / 2"]))["per_record"][0]["bleu"] for p in ("x = ((4)) / 0", "x = 4 / 0")]
    assert bleu[0] == bleu[1] > 0.0


def test_evaluate_corpus_parses_each_equation_once(monkeypatch):
    calls = []
    real = equation.parse_equation

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(equation, "parse_equation", counting)
    predictions = ["x = 2 + 3", "x = 1 +", "x = 1 / 0", "x = 9"]
    evaluate_corpus(predictions, _records(["x = 5", "x = 1", "x = 2", "x = 3"]))
    assert len(calls) == 2 * len(predictions)


def test_evaluate_corpus_one_prediction_text_two_golds():
    report = evaluate_corpus(["x = 2 + 3"] * 4, _records(["x = 5", "x = 6", "x = 5", "x = 6"]))
    assert [r["verdict"] for r in report["per_record"]] == [CORRECT, WRONG, CORRECT, WRONG]
    assert [r["solved_value"] for r in report["per_record"]] == ["5"] * 4
    assert [r["reference_value"] for r in report["per_record"]] == ["5", "6", "5", "6"]


def test_evaluate_corpus_prediction_equal_to_another_gold():
    # record 1 predicts record 0's gold text: its verdict is against its own gold
    report = evaluate_corpus(["x = 1 + 1", "x = 1 + 1", "x = 7"], _records(["x = 1 + 1", "x = 3", "x = 2"]))
    assert [r["verdict"] for r in report["per_record"]] == [CORRECT, WRONG, WRONG]
    assert [r["reference"] for r in report["per_record"]] == ["x = 1 + 1", "x = 3", "x = 2"]


def test_evaluate_corpus_repeated_division_by_zero():
    report = evaluate_corpus(["x = 1 / 0"] * 3, _records(["x = 1", "x = 2", "x = 1"]))
    assert [r["verdict"] for r in report["per_record"]] == [UNPARSEABLE] * 3
    assert [r["solved_value"] for r in report["per_record"]] == [None] * 3


def test_evaluate_corpus_parses_each_distinct_text_once(monkeypatch):
    calls = []
    real = equation.parse_equation

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(equation, "parse_equation", counting)
    golds = ["x = 5", "x = 2 + 3", "x = 5", "x = 4", "x = 2 + 3"]
    predictions = ["x = 2 + 3", "x = 5", "x = 5", "x = 2 + 3", "x = 4"]
    evaluate_corpus(predictions, _records(golds))
    assert sorted(calls) == sorted(set(golds + predictions))


def test_evaluate_corpus_equals_records_scored_alone():
    rng = random.Random(5)
    golds = ["x = 2 + 3", "x = 7 - 3", "x = 8 / 2", "x = ( 1 + 2 ) * 3", "x = 4"]
    pool = golds + ["x=2+3", "x = 3 + 2", "x = 1 / 0", "x = 1 +", "x = 9", "x = ৪"]
    predictions = [rng.choice(pool) for _ in range(60)]
    records = _records([rng.choice(golds) for _ in range(60)])
    report = evaluate_corpus(predictions, records)
    alone = [evaluate_corpus([p], [r])["per_record"][0] for p, r in zip(predictions, records)]
    assert report["per_record"] == alone


def test_evaluate_corpus_one_pair_under_three_ids():
    records = [MwpRecord(i, f"problem {i}", "x = 2 + 3") for i in ("a", "b", "c")]
    rows = evaluate_corpus(["x = 3 + 2"] * 3, records)["per_record"]
    assert [r["id"] for r in rows] == ["a", "b", "c"]
    assert [{**r, "id": None} for r in rows] == [{**rows[0], "id": None}] * 3
    # each row is its own dict
    rows[0]["verdict"] = "edited"
    assert rows[1]["verdict"] == rows[2]["verdict"] == CORRECT


def test_evaluate_corpus_bad_gold_names_its_first_record():
    records = [MwpRecord(i, "p", eq) for i, eq in (("ok", "x = 1"), ("bad1", "x = 1 / 0"), ("bad2", "x = 1 / 0"))]
    with pytest.raises(ValueError, match="record 'bad1': reference equation does not solve"):
        evaluate_corpus(["x = 1"] * 3, records)
    records = [MwpRecord(i, "p", eq) for i, eq in (("ok", "x = 1"), ("bad1", "x ="), ("bad2", "x ="))]
    with pytest.raises(ValueError, match="record 'bad1': bad equation"):
        evaluate_corpus(["x = 1", "x = 2", "x = 1"], records)


def test_evaluate_corpus_calls_share_nothing_across_tolerances():
    predictions, records = ["x = 3.01", "x = 3.01"], _records(["x = 3", "x = 3"])
    for tolerance, verdict in ((0, WRONG), ("1/50", CORRECT), (0, WRONG)):
        report = evaluate_corpus(predictions, records, tolerance=tolerance)
        assert [r["verdict"] for r in report["per_record"]] == [verdict] * 2


def test_evaluate_corpus_counts_each_distinct_pair_once(monkeypatch):
    calls = []
    real = metrics._match_counts

    def counting(candidate, reference):
        calls.append((tuple(candidate), tuple(reference)))
        return real(candidate, reference)

    monkeypatch.setattr(metrics, "_match_counts", counting)
    predictions = ["x = 2 + 3", "x = 2 + 3", "x = 1 +", "x = 1 +", "x = 2 + 3", "x=2+3"]
    golds = ["x = 5", "x = 5", "x = 5", "x = 5", "x = 6", "x = 5"]
    evaluate_corpus(predictions, _records(golds))
    # the last pair repeats the first's tokens, but not its prediction text
    assert len(calls) == len(set(zip(predictions, golds))) == 4


def test_evaluate_corpus_scores_a_10000_term_sum():
    long_sum = "x = " + " + ".join(["1"] * 10_000)
    report = evaluate_corpus([long_sum, long_sum], _records(["x = 10000", long_sum]))
    assert [r["verdict"] for r in report["per_record"]] == [CORRECT, CORRECT]
    assert report["per_record"][1]["reference"] == long_sum
    assert report["per_record"][1]["bleu"] == 1.0


def test_evaluate_corpus_tolerance_passthrough():
    report = evaluate_corpus(["x = 3.01"], _records(["x = 3"]), tolerance="1/50")
    assert report["solution_accuracy"] == 1.0


def test_evaluate_corpus_length_mismatch():
    with pytest.raises(ValueError, match="2 predictions for 1 records"):
        evaluate_corpus(["x = 1", "x = 2"], _records(["x = 1"]))


def test_evaluate_corpus_bad_reference():
    with pytest.raises(ValueError, match="record '0': bad equation"):
        evaluate_corpus(["x = 1"], _records(["nope"]))
    with pytest.raises(ValueError, match="does not solve"):
        evaluate_corpus(["x = 1"], _records(["x = 1 / 0"]))


def test_evaluate_corpus_report_dict_shape():
    data = evaluate_corpus(["x = 4"], _records(["x = 4"]))
    assert isinstance(data, dict)
    assert set(data) == {"corpus_bleu", "solution_accuracy", "n_records", "per_record", "metadata"}
    assert set(data["per_record"][0]) == {
        "id",
        "predicted",
        "reference",
        "bleu",
        "solved_value",
        "reference_value",
        "verdict",
    }
    assert data["metadata"] == {}


GOLDEN_REPORT = """\
{
  "corpus_bleu": 45.68780090854671,
  "solution_accuracy": 0.3333333333333333,
  "n_records": 6,
  "per_record": [
    {
      "id": "g1",
      "predicted": "x = ৭ - ৩",
      "reference": "x = 7 - 3",
      "bleu": 1.0,
      "solved_value": "4",
      "reference_value": "4",
      "verdict": "correct"
    },
    {
      "id": "g2",
      "predicted": "x = 3 + 2",
      "reference": "x = 2 + 3",
      "bleu": 0.4272870063962341,
      "solved_value": "5",
      "reference_value": "5",
      "verdict": "correct"
    },
    {
      "id": "g3",
      "predicted": "x = 2 + 4",
      "reference": "x = 2 + 3",
      "bleu": 0.7521206186172787,
      "solved_value": "6",
      "reference_value": "5",
      "verdict": "wrong"
    },
    {
      "id": "g4",
      "predicted": "x = 1 +",
      "reference": "x = ( 1 + 2 ) / 3",
      "bleu": 0.17035677145427366,
      "solved_value": null,
      "reference_value": "1",
      "verdict": "unparseable"
    },
    {
      "id": "g5",
      "predicted": "x = 4 / 0",
      "reference": "x = 4 / 2",
      "bleu": 0.7521206186172787,
      "solved_value": null,
      "reference_value": "2",
      "verdict": "unparseable"
    },
    {
      "id": "g6",
      "predicted": "x = 0.3333",
      "reference": "x = 1 / 3",
      "bleu": 0.35250657096759425,
      "solved_value": "3333/10000",
      "reference_value": "1/3",
      "verdict": "wrong"
    }
  ],
  "metadata": {}
}"""


def test_evaluate_corpus_report_bytes():
    # every verdict, unparseable both ways, a Bengali-digit prediction and a fractional value
    golds = ["x = 7 - 3", "x = 2 + 3", "x = 2 + 3", "x = ( 1 + 2 ) / 3", "x = 4 / 2", "x = 1 / 3"]
    predictions = ["x = ৭ - ৩", "x = 3 + 2", "x = 2 + 4", "x = 1 +", "x = 4 / 0", "x = 0.3333"]
    records = [MwpRecord(f"g{i}", f"problem {i}", eq) for i, eq in enumerate(golds, 1)]
    report = evaluate_corpus(predictions, records)
    assert json.dumps(report, indent=2, ensure_ascii=False) == GOLDEN_REPORT


# --- results table ---------------------------------------------------------------


def test_format_results_table():
    rows = [
        {"model": "transformer", "batch_size": 8, "epochs": 15, "bleu": 68.0914, "accuracy": 0.9},
        {"model": "transformer", "batch_size": 16, "epochs": 5, "bleu": 22.4, "accuracy": 0.0625},
    ]
    text = format_results_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["Model", "Name", "Batch", "Size", "Epoch", "Bleu", "Accuracy"]
    assert set(lines[1]) == {"-", " "}
    assert lines[2].split() == ["transformer", "8", "15", "68.09", "90.00%"]
    assert lines[3].split() == ["transformer", "16", "5", "22.40", "6.25%"]


def test_format_results_table_error_row():
    text = format_results_table([{"model": "t", "batch_size": 8, "epochs": 5, "error": "boom"}])
    assert "error: boom" in text.splitlines()[2]


def test_format_results_table_empty():
    text = format_results_table([])
    assert text.splitlines()[0].startswith("Model Name")

"""BLEU, solution accuracy, and evaluation report tests."""

import random
from fractions import Fraction

import pytest

from bleu_oracle import CASES, naive_corpus_bleu, naive_sentence_bleu
from mwp import equation
from mwp.dataset import MwpRecord
from mwp.metrics import (
    CORRECT,
    UNPARSEABLE,
    WRONG,
    corpus_bleu,
    evaluate_corpus,
    format_results_table,
    sentence_bleu,
    solution_accuracy,
)

# --- sentence BLEU -----------------------------------------------------------


@pytest.mark.parametrize("cand, ref", CASES)
def test_sentence_bleu_matches_oracle(cand, ref):
    got = sentence_bleu(cand.split(), ref.split())
    want = naive_sentence_bleu(cand.split(), ref.split())
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
        assert got == pytest.approx(naive_sentence_bleu(cand, ref), abs=1e-12)


def test_sentence_bleu_max_n_validation():
    with pytest.raises(ValueError):
        sentence_bleu(["a"], ["a"], max_n=0)


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
        assert corpus_bleu(pairs) == pytest.approx(naive_corpus_bleu(pairs), abs=1e-9)


def test_corpus_bleu_zero_when_no_overlap():
    assert corpus_bleu([(["a", "b"], ["c", "d"])]) == 0.0


def test_corpus_bleu_skips_orders_longer_than_candidates():
    # both sides two tokens: orders 3 and 4 have no n-grams and are excluded
    assert corpus_bleu([(["a", "b"], ["a", "b"])]) == 100.0


def test_corpus_bleu_empty_pairs_rejected():
    with pytest.raises(ValueError):
        corpus_bleu([])


# --- solution accuracy --------------------------------------------------------


def test_solution_accuracy_value_equality_not_surface():
    acc, verdicts = solution_accuracy([("x = 4", "x = 7 - 3")])
    assert acc == 1.0
    assert verdicts[0].verdict == CORRECT
    assert verdicts[0].predicted_value == Fraction(4)
    assert verdicts[0].reference_value == Fraction(4)


def test_solution_accuracy_mixed_verdicts():
    pairs = [
        ("x = 2 + 3", "x = 5"),
        ("x = 6", "x = 5"),
        ("x = ", "x = 5"),
        ("x = 5 / 0", "x = 5"),
    ]
    acc, verdicts = solution_accuracy(pairs)
    assert acc == 0.25
    assert [v.verdict for v in verdicts] == [CORRECT, WRONG, UNPARSEABLE, UNPARSEABLE]
    assert verdicts[2].predicted_value is None


def test_solution_accuracy_exact_fractions():
    acc, verdicts = solution_accuracy([("x = 1 / 3", "x = 1 / 3"), ("x = 0.3333", "x = 1 / 3")])
    assert [v.verdict for v in verdicts] == [CORRECT, WRONG]
    assert acc == 0.5


def test_solution_accuracy_bengali_digits():
    acc, _ = solution_accuracy([("x = ৭ - ৩", "x = 4")])
    assert acc == 1.0


def test_solution_accuracy_tolerance():
    pair = [("x = 3.01", "x = 3")]
    assert solution_accuracy(pair)[0] == 0.0
    assert solution_accuracy(pair, tolerance="1/50")[0] == 1.0
    assert solution_accuracy(pair, tolerance=Fraction(1, 100))[0] == 1.0


def test_solution_accuracy_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        solution_accuracy([("x = 1", "x = 1")], tolerance=-1)


def test_solution_accuracy_bad_reference_rejected():
    with pytest.raises(ValueError, match="reference equation 0"):
        solution_accuracy([("x = 1", "x = 1 / 0")])
    with pytest.raises(ValueError, match="reference equation 1"):
        solution_accuracy([("x = 1", "x = 1"), ("x = 1", "garbage")])


def test_solution_accuracy_empty_pairs():
    acc, verdicts = solution_accuracy([])
    assert acc == 0.0 and verdicts == []


# --- corpus evaluation ----------------------------------------------------------


def _records(eqs):
    return [MwpRecord(str(i), f"problem {i}", eq) for i, eq in enumerate(eqs)]


def test_evaluate_corpus_gold_predictions_perfect():
    records = _records(["x = 7 - 3", "x = ( 1 + 2 ) / 3", "x = 5"])
    # same equations in denser surface form; canonicalization aligns them
    report = evaluate_corpus(["x=7-3", "x=(1+2)/3", "x=5"], records)
    assert report.corpus_bleu == 100.0
    assert report.solution_accuracy == 1.0
    assert report.n_records == 3
    assert [r.verdict for r in report.per_record] == [CORRECT] * 3


def test_evaluate_corpus_value_right_surface_reordered():
    report = evaluate_corpus(["x = 3 + 2"], _records(["x = 2 + 3"]))
    record = report.per_record[0]
    assert record.verdict == CORRECT
    assert record.bleu == pytest.approx(0.4272870063962341, abs=1e-9)
    assert report.solution_accuracy == 1.0
    assert report.corpus_bleu < 100.0


def test_evaluate_corpus_bleu_and_accuracy_disagree():
    # value-wrong prediction outscores the value-correct reordering on BLEU
    wrong = evaluate_corpus(["x = 2 + 4"], _records(["x = 2 + 3"]))
    right = evaluate_corpus(["x = 3 + 2"], _records(["x = 2 + 3"]))
    assert wrong.per_record[0].verdict == WRONG
    assert right.per_record[0].verdict == CORRECT
    assert wrong.per_record[0].bleu > right.per_record[0].bleu


def test_evaluate_corpus_unparseable_prediction():
    report = evaluate_corpus(["x = 2 +"], _records(["x = 2 + 3"]))
    record = report.per_record[0]
    assert record.verdict == UNPARSEABLE
    assert record.solved_value is None
    assert record.reference_value == "5"
    assert report.solution_accuracy == 0.0


def test_division_by_zero_prediction_same_verdict_both_ways():
    _, verdicts = solution_accuracy([("x = 4 / 0", "x = 4")])
    report = evaluate_corpus(["x=4/0"], _records(["x = 4"]))
    record = report.per_record[0]
    assert verdicts[0].verdict == record.verdict == UNPARSEABLE
    assert verdicts[0].predicted_value is None and record.solved_value is None
    # it parses, so BLEU tokenizes its canonical form, without the parentheses
    bleu = [evaluate_corpus([p], _records(["x = 4 / 2"])).per_record[0].bleu for p in ("x = ((4)) / 0", "x = 4 / 0")]
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


def test_evaluate_corpus_tolerance_passthrough():
    report = evaluate_corpus(["x = 3.01"], _records(["x = 3"]), tolerance="1/50")
    assert report.solution_accuracy == 1.0


def test_evaluate_corpus_length_mismatch():
    with pytest.raises(ValueError, match="2 predictions for 1 records"):
        evaluate_corpus(["x = 1", "x = 2"], _records(["x = 1"]))


def test_evaluate_corpus_bad_reference():
    with pytest.raises(ValueError, match="record '0': bad equation"):
        evaluate_corpus(["x = 1"], _records(["nope"]))
    with pytest.raises(ValueError, match="does not solve"):
        evaluate_corpus(["x = 1"], _records(["x = 1 / 0"]))


def test_evaluate_corpus_report_dict_shape():
    report = evaluate_corpus(["x = 4"], _records(["x = 4"]))
    data = report.as_dict()
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

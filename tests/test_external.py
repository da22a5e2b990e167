"""External predictor adapter tests: JSONL protocol, alignment, errors."""

import json
import sys
import textwrap

import pytest

from mwp.model.external import FilePredictions, SubprocessPredictor, external_predict

ITEMS = [("r1", "৫ টি আম"), ("r2", "৩ টি কলা"), ("r3", "৭ টি বই")]


def write_predictions(path, rows):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                    encoding="utf-8")


# --- file-backed predictions -----------------------------------------------------


def test_file_predictions_align_by_id(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_predictions(path, [
        {"id": "r3", "equation": "x = 7 - 1"},  # deliberately out of order
        {"id": "r1", "equation": "x = 5 + 2"},
        {"id": "r2", "equation": "x = 3 * 3"},
    ])
    out = external_predict(ITEMS, FilePredictions(path))
    assert out == ["x = 5 + 2", "x = 3 * 3", "x = 7 - 1"]


def test_file_predictions_skip_blank_lines(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "r1", "equation": "x = 1"}\n\n\n', encoding="utf-8")
    assert FilePredictions(path).predict([("r1", "p")]) == {"r1": "x = 1"}


def test_file_predictions_reject_invalid_json(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "r1", "equation": "x = 1"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2.*invalid JSON"):
        FilePredictions(path)


def test_file_predictions_name_a_non_utf8_file(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(b'{"id": "r1", "equation": "x = \xff"}\n')
    with pytest.raises(ValueError) as err:
        FilePredictions(path)
    assert str(err.value) == f"{path} is not UTF-8 text: invalid start byte at byte 30"


def test_file_predictions_reject_missing_keys(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "r1"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        FilePredictions(path)


def test_file_predictions_reject_duplicate_ids(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_predictions(path, [
        {"id": "r1", "equation": "x = 1"},
        {"id": "r1", "equation": "x = 2"},
    ])
    with pytest.raises(ValueError, match="duplicate id 'r1'"):
        FilePredictions(path)


def test_missing_prediction_is_reported(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_predictions(path, [{"id": "r1", "equation": "x = 1"}])
    with pytest.raises(ValueError, match=r"missing predictions for \['r2', 'r3'\]"):
        external_predict(ITEMS, FilePredictions(path))


def test_unrequested_id_is_reported(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_predictions(path, [
        {"id": "r1", "equation": "x = 1"},
        {"id": "r2", "equation": "x = 2"},
        {"id": "r3", "equation": "x = 3"},
        {"id": "ghost", "equation": "x = 0"},
    ])
    # FilePredictions filters to requested ids, so alignment succeeds.
    out = external_predict(ITEMS, FilePredictions(path))
    assert out == ["x = 1", "x = 2", "x = 3"]


def test_duplicate_request_ids_rejected(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_predictions(path, [{"id": "r1", "equation": "x = 1"}])
    with pytest.raises(ValueError, match=r"duplicate request ids: \['r1'\]"):
        external_predict([("r1", "a"), ("r1", "b")], FilePredictions(path))


# --- subprocess predictors -------------------------------------------------------


ECHO_SCRIPT = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        print(json.dumps({"id": req["id"], "equation": "x = 1 + 1"}))
""")


def script_argv(tmp_path, body):
    script = tmp_path / "predictor.py"
    script.write_text(body, encoding="utf-8")
    return [sys.executable, str(script)]


def test_subprocess_round_trip(tmp_path):
    argv = script_argv(tmp_path, ECHO_SCRIPT)
    out = external_predict(ITEMS, SubprocessPredictor(argv))
    assert out == ["x = 1 + 1"] * 3


def test_subprocess_receives_problem_text(tmp_path):
    body = textwrap.dedent("""
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            print(json.dumps({"id": req["id"], "equation": "x = " + str(len(req["problem"]))}))
    """)
    out = external_predict([("a", "৫ টি"), ("b", "lengthier problem")],
                           SubprocessPredictor(script_argv(tmp_path, body)))
    assert out == ["x = 4", "x = 17"]


def test_subprocess_nonzero_exit_raises_with_stderr(tmp_path):
    body = 'import sys; sys.stderr.write("boom: missing model\\n"); sys.exit(3)'
    predictor = SubprocessPredictor(script_argv(tmp_path, body))
    with pytest.raises(RuntimeError, match="exited with 3.*boom: missing model"):
        predictor.predict(ITEMS)


def test_subprocess_omitting_an_id_fails_alignment(tmp_path):
    body = textwrap.dedent("""
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            if req["id"] != "r2":
                print(json.dumps({"id": req["id"], "equation": "x = 1"}))
    """)
    with pytest.raises(ValueError, match=r"missing predictions for \['r2'\]"):
        external_predict(ITEMS, SubprocessPredictor(script_argv(tmp_path, body)))


def test_subprocess_inventing_an_id_fails_alignment(tmp_path):
    body = textwrap.dedent("""
        import json, sys
        lines = [json.loads(l) for l in sys.stdin if l.strip()]
        for req in lines:
            print(json.dumps({"id": req["id"], "equation": "x = 1"}))
        print(json.dumps({"id": "invented", "equation": "x = 2"}))
    """)
    with pytest.raises(ValueError, match=r"unrequested ids \['invented'\]"):
        external_predict(ITEMS, SubprocessPredictor(script_argv(tmp_path, body)))


def test_subprocess_program_that_cannot_start_raises_runtime_error(tmp_path):
    predictor = SubprocessPredictor([str(tmp_path / "no-such-program")])
    with pytest.raises(RuntimeError, match="'.*no-such-program' could not start"):
        predictor.predict(ITEMS)


def test_subprocess_empty_argv_rejected():
    with pytest.raises(ValueError, match="argv"):
        SubprocessPredictor([])

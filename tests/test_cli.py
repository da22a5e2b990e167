"""Command-line pipeline tests, run in process through main(argv)."""

import json
import os
import subprocess
import sys

import pytest

from mwp import dataset as ds
from mwp.cli import _grid_workers, main
from mwp.runconfig import (
    ConfigError,
    load_run_config,
    parse_config_text,
    run_config_from_mapping,
)

TINY_MODEL = """
model.d_model = 16
model.n_heads = 2
model.d_ff = 32
model.n_encoder_layers = 1
model.n_decoder_layers = 1
model.dropout = 0.0
model.max_len = 48
train.batch_size = 4
train.epochs = 2
train.learning_rate = 0.003
"""


def write_config(tmp_path, extra=""):
    config = tmp_path / "run.cfg"
    lines = TINY_MODEL + "\n".join(
        [
            f"data.train = {tmp_path / 'parts' / 'train.jsonl'}",
            f"data.validation = {tmp_path / 'parts' / 'validation.jsonl'}",
            f"data.test = {tmp_path / 'parts' / 'test.jsonl'}",
            f"paths.vocab_dir = {tmp_path / 'vocab'}",
            f"paths.checkpoint = {tmp_path / 'model.ckpt'}",
            f"paths.history = {tmp_path / 'history.txt'}",
            f"paths.report = {tmp_path / 'report.json'}",
            f"paths.grid_report = {tmp_path / 'grid.json'}",
            extra,
        ]
    )
    config.write_text(lines, encoding="utf-8")
    return config


def make_parts(tmp_path, n=12, seed=3):
    data = tmp_path / "data.jsonl"
    assert main(["datagen", "--n", str(n), "--seed", str(seed), "--out", str(data)]) == 0
    assert main(["split", "--in", str(data), "--out", str(tmp_path / "parts")]) == 0
    return data


# --- config parsing --------------------------------------------------------------


def test_parse_config_text_reads_dotted_keys():
    values = parse_config_text("# comment\n\nmodel.d_model = 32\nseed=7\n")
    assert values == {"model.d_model": "32", "seed": "7"}


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a key value line")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("seed = 1\nseed = 2")


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'model.depth'"):
        run_config_from_mapping({"model.depth": "3"})
    # mwp split takes its ratios from --ratios only
    with pytest.raises(ConfigError, match="unknown key 'split.ratios'"):
        run_config_from_mapping({"split.ratios": "0.8,0.1,0.1"})


def test_config_values_convert_and_validate():
    cfg = run_config_from_mapping({
        "model.d_model": "64",
        "train.clip_norm": "none",
        "grid.epochs": "5, 15",
        "eval.tolerance": "1/100",
    })
    assert cfg.d_model == 64
    assert cfg.clip_norm is None
    assert cfg.grid_epochs == (5, 15)
    with pytest.raises(ConfigError, match="expected an integer"):
        run_config_from_mapping({"model.d_model": "big"})
    with pytest.raises(ConfigError, match="tolerance"):
        run_config_from_mapping({"eval.tolerance": "-1/2"})


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "absent.cfg")


def test_defaults_used_without_config_file():
    cfg = load_run_config(None)
    assert cfg.batch_size == 8
    assert cfg.epochs == 15
    assert cfg.learning_rate == 1e-4
    assert cfg.dropout == 0.1


# --- datagen ----------------------------------------------------------------------


def test_datagen_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(["datagen", "--n", "20", "--seed", "1", "--out", str(out)]) == 0
    records = ds.load_dataset(out)
    assert len(records) == 20
    assert "wrote 20 records" in capsys.readouterr().out


def test_datagen_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["datagen", "--n", "30", "--seed", "5", "--out", str(a)])
    main(["datagen", "--n", "30", "--seed", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_datagen_rejects_zero_n(tmp_path, capsys):
    assert main(["datagen", "--n", "0", "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "config error" in capsys.readouterr().err


def test_datagen_profile_controls_classes(tmp_path):
    out = tmp_path / "adds.jsonl"
    assert main(["datagen", "--n", "10", "--out", str(out), "--profile", "add=1.0"]) == 0
    counts = ds.summarize(ds.load_dataset(out)).as_dict()
    assert counts["add"] == 10


def test_datagen_bad_profile_is_config_error(tmp_path, capsys):
    assert main(["datagen", "--n", "5", "--out", str(tmp_path / "x.jsonl"),
                 "--profile", "add:1.0"]) == 2
    assert "config error" in capsys.readouterr().err


# --- split ------------------------------------------------------------------------


def test_split_writes_three_parts(tmp_path):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "10", "--seed", "2", "--out", str(data)])
    assert main(["split", "--in", str(data), "--out", str(tmp_path / "parts"), "--seed", "4"]) == 0
    sizes = {}
    ids = set()
    for name in ("train", "validation", "test"):
        part = ds.load_dataset(tmp_path / "parts" / f"{name}.jsonl")
        sizes[name] = len(part)
        ids.update(r.id for r in part)
    assert sizes == {"train": 8, "validation": 1, "test": 1}
    assert len(ids) == 10  # a partition: nothing lost, nothing duplicated


def test_split_same_seed_is_byte_identical(tmp_path):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "15", "--seed", "2", "--out", str(data)])
    main(["split", "--in", str(data), "--out", str(tmp_path / "p1"), "--seed", "9"])
    main(["split", "--in", str(data), "--out", str(tmp_path / "p2"), "--seed", "9"])
    for name in ("train", "validation", "test"):
        assert (tmp_path / "p1" / f"{name}.jsonl").read_bytes() == (
            tmp_path / "p2" / f"{name}.jsonl"
        ).read_bytes()


def test_split_missing_input_is_data_error(tmp_path, capsys):
    assert main(["split", "--in", str(tmp_path / "no.jsonl"), "--out", str(tmp_path / "p")]) == 3
    assert "data error" in capsys.readouterr().err


def test_split_non_string_fields_are_data_error(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text('{"problem": "p", "equation": "x = 1"}\n{"problem": {"a": 1}, "equation": "x = 2"}\n',
                    encoding="utf-8")
    assert main(["split", "--in", str(data), "--out", str(tmp_path / "parts")]) == 3
    assert "line 2: 'problem' and 'equation' must be strings" in capsys.readouterr().err
    assert not (tmp_path / "parts").exists()


def test_split_bad_ratios_is_config_error(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "10", "--out", str(data)])
    assert main(["split", "--in", str(data), "--out", str(tmp_path / "p"),
                 "--ratios", "0.8,0.1,0.2"]) == 2
    assert "sum to 1" in capsys.readouterr().err


# --- solve ------------------------------------------------------------------------


def test_solve_equation_prints_value(capsys):
    assert main(["solve", "--equation", "x=(7-3)"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_solve_equation_handles_bengali_digits_and_fractions(capsys):
    assert main(["solve", "--equation", "x = ৭ / ২"]) == 0
    assert capsys.readouterr().out.strip() == "3.5"
    assert main(["solve", "--equation", "x = 1 / 3"]) == 0
    assert capsys.readouterr().out.strip() == "1/3"


def test_solve_division_by_zero_is_runtime_error(capsys):
    assert main(["solve", "--equation", "x = 5 / 0"]) == 4
    assert "runtime error" in capsys.readouterr().err


def test_solve_unparseable_equation_is_data_error(capsys):
    assert main(["solve", "--equation", "x = )"]) == 3
    assert "data error" in capsys.readouterr().err


def test_solve_requires_exactly_one_input(capsys):
    assert main(["solve"]) == 2
    assert main(["solve", "some problem", "--equation", "x = 1"]) == 2


class ClosedPipe:
    """A standard output whose reader has gone away, as under ``| head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_a_runtime_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["solve", "--equation", "x = 1 + 2"]) == 4
    redirected = sys.stdout
    assert redirected.name == os.devnull
    redirected.close()
    err = capsys.readouterr().err
    assert err.startswith("runtime error: standard output closed")
    assert len(err.strip().splitlines()) == 1
    assert "data error" not in err


# --- train and eval ----------------------------------------------------------------


def test_train_writes_checkpoint_history_and_vocab(tmp_path, capsys):
    make_parts(tmp_path)
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "model.ckpt").is_file()
    assert (tmp_path / "vocab" / "src_vocab.txt").is_file()
    assert (tmp_path / "vocab" / "tgt_vocab.txt").is_file()
    history = (tmp_path / "history.txt").read_text(encoding="utf-8").splitlines()
    assert len(history) == 2  # one line per epoch
    assert all("train_loss=" in line and "val_loss=" in line for line in history)
    assert "saved checkpoint" in out


def test_train_same_seed_gives_identical_checkpoints(tmp_path):
    make_parts(tmp_path)
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config), "--seed", "3"]) == 0
    first = (tmp_path / "model.ckpt").read_bytes()
    assert main(["train", "--config", str(config), "--seed", "3"]) == 0
    assert (tmp_path / "model.ckpt").read_bytes() == first


def test_train_non_finite_loss_is_runtime_error(tmp_path, capsys):
    make_parts(tmp_path)
    config = write_config(tmp_path, extra="train.learning_rate = 1e300\n")
    config.write_text(config.read_text(encoding="utf-8").replace("train.learning_rate = 0.003\n", ""),
                      encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("runtime error: training loss is nan at epoch 1, step 2")
    assert not (tmp_path / "model.ckpt").exists()
    assert not (tmp_path / "history.txt").exists()


def test_train_divergence_prints_one_stderr_line(tmp_path):
    # numpy's overflow warnings would go to stderr before the error line
    make_parts(tmp_path)
    config = write_config(tmp_path, extra="train.learning_rate = 1e300\n")
    config.write_text(config.read_text(encoding="utf-8").replace("train.learning_rate = 0.003\n", ""),
                      encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "mwp.cli", "train", "--config", str(config)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr == "runtime error: training loss is nan at epoch 1, step 2\n"


def test_train_infinite_validation_loss_is_runtime_error(tmp_path, capsys, monkeypatch):
    import mwp.model.training

    make_parts(tmp_path)
    config = write_config(tmp_path)
    monkeypatch.setattr(mwp.model.training, "evaluate_loss", lambda *args, **kwargs: float("inf"))
    assert main(["train", "--config", str(config)]) == 4
    assert capsys.readouterr().err == "runtime error: validation loss is inf at epoch 1\n"
    assert not (tmp_path / "model.ckpt").exists()
    assert not (tmp_path / "history.txt").exists()


def test_train_missing_dataset_is_data_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config)]) == 3
    assert "data error" in capsys.readouterr().err


def test_train_zero_epochs_saves_initial_parameters(tmp_path):
    import numpy as np

    from mwp.model.checkpoint import load_checkpoint
    from mwp.model.network import init_parameters

    make_parts(tmp_path)
    config = write_config(tmp_path, extra="train.epochs = 0\nseed = 4\n")
    config.write_text(config.read_text(encoding="utf-8").replace("train.epochs = 2\n", ""),
                      encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 0
    ckpt = load_checkpoint(tmp_path / "model.ckpt")
    fresh = init_parameters(ckpt.config, np.random.default_rng(4))
    for key in fresh:
        np.testing.assert_array_equal(ckpt.params[key], fresh[key])
    assert (tmp_path / "history.txt").read_text(encoding="utf-8") == ""


def test_eval_checkpoint_end_to_end(tmp_path, capsys):
    make_parts(tmp_path)
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "Model Name" in out and "transformer" in out
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["n_records"] == 1
    assert 0.0 <= report["solution_accuracy"] <= 1.0
    assert report["metadata"]["beam"] == 0


def test_eval_gold_predictions_score_perfectly(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "6", "--seed", "8", "--out", str(data)])
    records = ds.load_dataset(data)
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        "".join(
            json.dumps({"id": r.id, "equation": r.equation_text}, ensure_ascii=False) + "\n"
            for r in records
        ),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    assert main(["eval", "--in", str(data), "--predictions", str(preds),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["solution_accuracy"] == 1.0
    assert report["corpus_bleu"] == pytest.approx(100.0)
    assert "100.00%" in capsys.readouterr().out


def test_eval_empty_predictions_score_zero(tmp_path):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "5", "--seed", "8", "--out", str(data)])
    records = ds.load_dataset(data)
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        "".join(json.dumps({"id": r.id, "equation": ""}) + "\n" for r in records),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    assert main(["eval", "--in", str(data), "--predictions", str(preds),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["solution_accuracy"] == 0.0
    assert all(r["verdict"] == "unparseable" for r in report["per_record"])


def test_eval_predictor_command_failure_is_runtime_error(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "3", "--out", str(data)])
    assert main(["eval", "--in", str(data), "--out", str(tmp_path / "r.json"),
                 "--predictor-cmd", "false"]) == 4
    assert "runtime error" in capsys.readouterr().err


def test_eval_missing_checkpoint_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "3", "--out", str(data)])
    assert main(["eval", "--in", str(data), "--checkpoint", str(tmp_path / "no.ckpt"),
                 "--out", str(tmp_path / "r.json")]) == 3
    assert "data error" in capsys.readouterr().err


def test_eval_bad_tolerance_is_config_error(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "3", "--out", str(data)])
    assert main(["eval", "--in", str(data), "--predictions", str(data),
                 "--tolerance", "zero"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model.width = 64\n", encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 2
    assert "unknown key" in capsys.readouterr().err


# --- grid --------------------------------------------------------------------------


def test_grid_trains_every_cell(tmp_path, capsys):
    make_parts(tmp_path)
    config = write_config(tmp_path, extra="grid.batch_sizes = 4\ngrid.epochs = 1,2\n")
    assert main(["grid", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "grid.json").read_text(encoding="utf-8"))
    assert [(r["batch_size"], r["epochs"]) for r in report["rows"]] == [(4, 1), (4, 2)]
    assert all("bleu" in r and "accuracy" in r for r in report["rows"])
    assert out.count("transformer") == 2


def test_grid_cell_failure_sets_runtime_exit(tmp_path, capsys):
    make_parts(tmp_path)
    # removing the test split fails each cell while the command itself survives
    (tmp_path / "parts" / "test.jsonl").unlink()
    config = write_config(tmp_path, extra="grid.batch_sizes = 4\ngrid.epochs = 1\n")
    assert main(["grid", "--config", str(config)]) == 4
    report = json.loads((tmp_path / "grid.json").read_text(encoding="utf-8"))
    assert "error" in report["rows"][0]
    assert "error" in capsys.readouterr().out


def test_grid_workers_capped_by_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _grid_workers(6) == 2
    assert _grid_workers(1) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _grid_workers(6) == 3

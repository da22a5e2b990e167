"""Command-line pipeline tests, run in process through main(argv)."""

import argparse
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mwp.cli
import mwp.model.training
from mwp import dataset as ds
from mwp.cli import _grid_workers, build_parser, main
from mwp.model.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mwp.model.config import ModelConfig, TrainConfig
from mwp.preprocess import DANDA
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
    assert cfg.model_config(10, 10).d_model == 64
    assert cfg.train_config().clip_norm is None
    assert cfg.grid_epochs == (5, 15)
    assert cfg.tolerance == Fraction(1, 100)
    with pytest.raises(ConfigError, match="expected an integer"):
        run_config_from_mapping({"model.d_model": "big"})
    with pytest.raises(ConfigError, match="tolerance must be >= 0, got '-1/2'"):
        run_config_from_mapping({"eval.tolerance": "-1/2"})


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "absent.cfg")


def test_defaults_used_without_config_file():
    cfg = load_run_config(None)
    assert cfg.train_config().batch_size == 8
    assert cfg.train_config().epochs == 15
    assert cfg.train_config().learning_rate == 1e-4
    assert cfg.model_config(10, 10).dropout == 0.1


def test_model_and_train_defaults_come_from_their_dataclasses():
    assert load_run_config(None).model_config(7, 9) == ModelConfig(7, 9)
    assert load_run_config(None).train_config() == TrainConfig()


# a value unlike each field's default, as the config file spells it
NON_DEFAULT = {
    "d_model": ("96", 96), "n_heads": ("8", 8), "d_ff": ("40", 40), "n_encoder_layers": ("3", 3),
    "n_decoder_layers": ("1", 1), "dropout": ("0.25", 0.25), "max_len": ("20", 20),
    "batch_size": ("5", 5), "epochs": ("0", 0), "learning_rate": ("0.5", 0.5), "beta1": ("0.5", 0.5),
    "beta2": ("0.75", 0.75), "eps": ("1e-3", 1e-3), "clip_norm": ("2.5", 2.5),
}


@pytest.mark.parametrize(
    "section, cls, name",
    [("model", ModelConfig, f.name) for f in dataclasses.fields(ModelConfig) if f.default is not dataclasses.MISSING]
    + [("train", TrainConfig, f.name) for f in dataclasses.fields(TrainConfig)
       if f.default is not dataclasses.MISSING and f.name != "seed"],
)
def test_every_defaulted_field_has_its_key(section, cls, name):
    raw, value = NON_DEFAULT[name]
    assert cls.__dataclass_fields__[name].default != value
    cfg = run_config_from_mapping({f"{section}.{name}": raw})
    built = cfg.model_config(10, 10) if section == "model" else cfg.train_config()
    assert getattr(built, name) == value


def test_seed_argument_replaces_config_seed(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 5\n", encoding="utf-8")
    assert load_run_config(config).seed == 5
    assert load_run_config(config, 9).seed == 9
    assert load_run_config(None, 9).seed == 9


def test_grid_parallel_key_is_gone(tmp_path, capsys):
    # --parallel is the one switch for concurrent grid runs
    with pytest.raises(ConfigError, match="unknown key 'grid.parallel'"):
        run_config_from_mapping({"grid.parallel": "true"})
    config = tmp_path / "run.cfg"
    config.write_text("grid.parallel = true\n", encoding="utf-8")
    assert main(["grid", "--config", str(config)]) == 2
    assert "unknown key 'grid.parallel'" in capsys.readouterr().err


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
    counts = ds.summarize(ds.load_dataset(out))
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


def test_main_builds_its_parser_once(monkeypatch, capsys):
    main(["solve", "--equation", "x = 1"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["solve", "--equation", "x = 2 * 3"]) == 0
    assert main(["solve", "--equation", "x = 7 - 3"]) == 0
    assert capsys.readouterr().out.split() == ["1", "6", "4"]
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert main(["solve", "--equation", "x = 2 + 2"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert built == [] and build_parser() is build_parser()


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


def write_gold_predictions(tmp_path, n):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", str(n), "--seed", "8", "--out", str(data)])
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        "".join(
            json.dumps({"id": r.id, "equation": r.equation_text}, ensure_ascii=False) + "\n"
            for r in ds.load_dataset(data)
        ),
        encoding="utf-8",
    )
    return data, preds


def test_eval_gold_predictions_score_perfectly(tmp_path, capsys):
    data, preds = write_gold_predictions(tmp_path, 6)
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


def test_eval_both_external_inputs_is_config_error(tmp_path, capsys):
    data, preds = write_gold_predictions(tmp_path, 3)
    ran = tmp_path / "ran"
    report_path = tmp_path / "r.json"
    assert main(["eval", "--in", str(data), "--out", str(report_path), "--predictions", str(preds),
                 "--predictor-cmd", f"touch {ran}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not ran.exists() and not report_path.exists()


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


def test_negative_tolerance_is_config_error_from_flag_and_key(tmp_path, capsys):
    data, preds = write_gold_predictions(tmp_path, 3)
    config = tmp_path / "run.cfg"
    config.write_text("eval.tolerance = -1\n", encoding="utf-8")
    report = tmp_path / "report.json"
    base = ["eval", "--in", str(data), "--predictions", str(preds), "--out", str(report)]
    capsys.readouterr()
    for argv in (base + ["--tolerance=-1"], base + ["--config", str(config)]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "tolerance must be >= 0, got '-1'" in err[0]
    assert not report.exists()
    assert main(base + ["--tolerance", "1/2"]) == 0


def test_negative_beam_is_config_error_before_loading_a_checkpoint(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "3", "--out", str(data)])
    config = tmp_path / "run.cfg"
    config.write_text("eval.beam = -2\n", encoding="utf-8")
    missing = str(tmp_path / "no.ckpt")  # loading it would be a data error, exit 3
    report = tmp_path / "report.json"
    capsys.readouterr()
    for argv in (
        ["eval", "--in", str(data), "--checkpoint", missing, "--out", str(report), "--beam", "-2"],
        ["eval", "--in", str(data), "--checkpoint", missing, "--out", str(report), "--config", str(config)],
        ["solve", "--checkpoint", missing, "--beam", "-2", "problem"],
        ["solve", "--checkpoint", missing, "--config", str(config), "problem"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "beam must be >= 0" in err[0], argv
    assert not report.exists()


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


def test_grid_missing_test_set_is_data_error_before_training(tmp_path, capsys, monkeypatch):
    make_parts(tmp_path)
    (tmp_path / "parts" / "test.jsonl").unlink()
    calls = count_train_calls(monkeypatch)
    config = write_config(tmp_path, extra="grid.batch_sizes = 4\ngrid.epochs = 1\n")
    assert main(["grid", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "test.jsonl" in err and err.count("\n") == 1
    assert calls == [] and not (tmp_path / "grid.json").exists()


def test_grid_bad_reference_is_data_error_before_training(tmp_path, capsys, monkeypatch):
    make_parts(tmp_path)
    test_set = tmp_path / "parts" / "test.jsonl"
    first, *rest = test_set.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = {**json.loads(first), "equation": "x = 1 / 0"}
    test_set.write_text(json.dumps(bad, ensure_ascii=False) + "\n" + "".join(rest), encoding="utf-8")
    calls = count_train_calls(monkeypatch)
    config = write_config(tmp_path, extra="grid.batch_sizes = 4\ngrid.epochs = 1\n")
    assert main(["grid", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: record {bad['id']!r}") and err.count("\n") == 1
    assert calls == [] and not (tmp_path / "grid.json").exists()


def test_grid_workers_capped_by_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _grid_workers(6) == 2
    assert _grid_workers(1) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _grid_workers(6) == 3


def grid_rows(tmp_path, batch_sizes, epochs, *flags):
    """Exit code and grid.json rows of one grid run on the split under tmp_path."""
    config = write_config(tmp_path, extra=f"grid.batch_sizes = {batch_sizes}\ngrid.epochs = {epochs}\n")
    code = main(["grid", "--config", str(config), *flags])
    return code, json.loads((tmp_path / "grid.json").read_text(encoding="utf-8"))["rows"]


def count_train_calls(monkeypatch):
    """Record (batch_size, epochs) of every mwp.cli.train call."""
    calls = []
    real_train = mwp.cli.train

    def counted(params, config, train_config, *args, **kwargs):
        calls.append((train_config.batch_size, train_config.epochs))
        return real_train(params, config, train_config, *args, **kwargs)

    monkeypatch.setattr(mwp.cli, "train", counted)
    return calls


def test_grid_shares_one_run_across_epochs(tmp_path):
    make_parts(tmp_path)
    code, shared = grid_rows(tmp_path, "4", "1,2")
    assert code == 0
    assert shared == grid_rows(tmp_path, "4", "1")[1] + grid_rows(tmp_path, "4", "2")[1]


def test_grid_keeps_unsorted_duplicate_and_zero_epoch_cells(tmp_path):
    make_parts(tmp_path)
    code, shared = grid_rows(tmp_path, "4", "2,0,1,2")
    assert code == 0
    assert [r["epochs"] for r in shared] == [2, 0, 1, 2]
    assert shared == [grid_rows(tmp_path, "4", str(e))[1][0] for e in (2, 0, 1, 2)]


def test_grid_trains_once_per_batch_size(tmp_path, monkeypatch):
    make_parts(tmp_path)
    calls = count_train_calls(monkeypatch)
    code, rows = grid_rows(tmp_path, "2,4,2", "3,1")
    assert code == 0
    assert calls == [(2, 3), (4, 3)]
    assert [(r["batch_size"], r["epochs"]) for r in rows] == [(2, 3), (2, 1), (4, 3), (4, 1), (2, 3), (2, 1)]
    assert rows[4:] == rows[:2]


def test_grid_parallel_matches_serial(tmp_path):
    make_parts(tmp_path)
    assert grid_rows(tmp_path, "2,4", "2,1")[0] == 0
    serial = (tmp_path / "grid.json").read_bytes()
    assert grid_rows(tmp_path, "2,4", "2,1", "--parallel")[0] == 0
    assert (tmp_path / "grid.json").read_bytes() == serial


def test_grid_mid_run_nan_fails_only_later_cells(tmp_path, monkeypatch):
    real_update = mwp.model.training.adam_update

    def nan_at_step(step):
        calls = []

        def update(params, *args, **kwargs):
            real_update(params, *args, **kwargs)
            calls.append(None)
            if len(calls) == step:
                params["out.b"][0] = np.nan

        return update

    make_parts(tmp_path)

    def rows(epochs):
        # a fresh step count per grid, as every grid here trains one run
        monkeypatch.setattr(mwp.model.training, "adam_update", nan_at_step(4))
        return grid_rows(tmp_path, "4", epochs)

    code, shared = rows("1,3,2")
    assert code == 4
    assert shared == rows("1")[1] + rows("3")[1] + rows("2")[1]
    assert "error" not in shared[0]
    assert "training loss is nan at epoch 2" in shared[1]["error"]
    assert shared[1]["error"] == shared[2]["error"]


@pytest.mark.parametrize("extra", ["grid.batch_sizes = 4,0\ngrid.epochs = 1\n",
                                   "grid.batch_sizes = 4\ngrid.epochs = 1,-1\n"],
                         ids=["batch-size-0", "negative-epochs"])
def test_grid_bad_cell_is_config_error_before_training(tmp_path, capsys, monkeypatch, extra):
    make_parts(tmp_path)
    calls = count_train_calls(monkeypatch)
    config = write_config(tmp_path, extra=extra)
    assert main(["grid", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert calls == []
    assert not (tmp_path / "grid.json").exists()


# --- damaged checkpoints ----------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A split, config and checkpoint written by mwp train, plus the checkpoint's bytes."""
    root = tmp_path_factory.mktemp("trained")
    make_parts(root)
    write_config(root)
    assert main(["train", "--config", str(root / "run.cfg")]) == 0
    return root, (root / "model.ckpt").read_bytes()


def eval_damaged(root, blob):
    damaged = root / "damaged.ckpt"
    damaged.write_bytes(blob)
    return main(["eval", "--config", str(root / "run.cfg"), "--checkpoint", str(damaged),
                 "--out", str(root / "damaged.json")])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["first", "last"])
def test_eval_refuses_non_finite_checkpoint_tensor(trained, capsys, value, where):
    root, blob = trained
    (meta_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    at = len(MAGIC) + 8 + meta_len if where == "first" else len(blob) - 8
    assert eval_damaged(root, blob[:at] + struct.pack("<d", value) + blob[at + 8:]) == 3
    assert "non-finite" in capsys.readouterr().err


# a flipped exponent bit can leave a huge but finite weight, which decodes
# to garbage and exits 0, or to non-finite logits and exits 3
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eval_survives_truncated_or_flipped_checkpoint(trained, data):
    root, blob = trained
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        flipped = blob[at] ^ data.draw(st.integers(1, 255), label="xor")
        damaged = blob[:at] + bytes([flipped]) + blob[at + 1:]
    assert eval_damaged(root, damaged) in (0, 3)


def test_huge_weight_is_one_data_error_line(trained, capsys):
    root, blob = trained
    ckpt = load_checkpoint(root / "model.ckpt")
    # the danda ends every problem; its huge embedding overflows attention scores
    ckpt.params["src_embed"][ckpt.src_vocab.id_of(DANDA), 0] = 1e300
    huge = root / "huge.ckpt"
    save_checkpoint(huge, ckpt.params, ckpt.config, ckpt.src_vocab, ckpt.tgt_vocab, ckpt.extra)
    problem = ds.load_dataset(root / "parts" / "test.jsonl")[0].problem_text
    config = str(root / "run.cfg")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv in (["eval", "--config", config, "--checkpoint", str(huge), "--out", str(root / "huge.json")],
                     ["eval", "--config", config, "--checkpoint", str(huge), "--beam", "4",
                      "--out", str(root / "huge.json")],
                     ["solve", "--config", config, "--checkpoint", str(huge), problem]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("data error: decoding step 1 gave non-finite logits")
    assert caught == []
    assert not (root / "huge.json").exists()


# --- record-level data errors -------------------------------------------------------

LONG_PROBLEM = "আম " * 60  # 60 source tokens, past TINY_MODEL's max_len of 48


@pytest.mark.parametrize(
    "command, part, field, value, vocab_built, expected",
    [
        ("train", "train", "equation_text", "x = (3 + 4", False, "record {id}: bad equation: expected ')'"),
        ("train", "train", "equation_text", "x = (3 + 4", True, "record {id}: bad equation: expected ')'"),
        ("train", "validation", "equation_text", "x = 3 +", True, "record {id}: bad equation: unexpected end"),
        ("eval", "test", "equation_text", "x = 3 +", True, "record {id}: bad equation: unexpected end"),
        ("train", "train", "problem_text", LONG_PROBLEM, False, "1 record(s) exceed max_len=48: [{id}]"),
        ("eval", "test", "problem_text", LONG_PROBLEM, True, "1 record(s) exceed max_len=48: [{id}]"),
        ("train", "train", "problem_text", " \t ", False, "record {id} has an empty problem after tokenization"),
        ("eval", "test", "problem_text", " \t ", True, "record {id} has an empty problem after tokenization"),
    ],
    ids=["train-bad-equation", "train-bad-equation-vocab-built", "validation-bad-equation", "eval-bad-equation",
         "train-too-long", "eval-too-long", "train-blank-problem", "eval-blank-problem"],
)
def test_record_data_error_is_one_line_naming_the_record(
    trained, tmp_path, capsys, command, part, field, value, vocab_built, expected
):
    root, _ = trained
    shutil.copytree(root / "parts", tmp_path / "parts")
    if vocab_built:
        shutil.copytree(root / "vocab", tmp_path / "vocab")
    records = ds.load_dataset(tmp_path / "parts" / f"{part}.jsonl")
    setattr(records[0], field, value)
    ds.save_dataset(records, tmp_path / "parts" / f"{part}.jsonl")
    config = write_config(tmp_path)
    if command == "eval":
        (tmp_path / "model.ckpt").write_bytes((root / "model.ckpt").read_bytes())
    assert main([command, "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: " + expected.format(id=repr(records[0].id)))

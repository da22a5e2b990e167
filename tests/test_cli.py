"""Command-line pipeline tests, run in process through main(argv)."""

import argparse
import dataclasses
import json
import os
import shlex
import shutil
import struct
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mwp.cli
import mwp.model.network
import mwp.model.training
from mwp import dataset as ds
from mwp.cli import _grid_workers, _worker_pool, _write_json, build_parser, main
from mwp.model.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mwp.model.config import MAX_LEN_LIMIT, ModelConfig, TrainConfig
from mwp.preprocess import BOS_ID, DANDA, RESERVED_TOKENS
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


def test_non_utf8_config_file_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"seed = 5\n# \xff\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(config)
    assert str(err.value) == f"{config} is not UTF-8 text: invalid start byte at byte 11"
    assert main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {config} is not UTF-8 text: invalid start byte at byte 11\n"


def test_non_utf8_dataset_is_data_error_naming_it(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_bytes(b"\xff\n")
    assert main(["split", "--in", str(data), "--out", str(tmp_path / "parts")]) == 3
    assert capsys.readouterr().err == f"data error: {data} is not UTF-8 text: invalid start byte at byte 0\n"
    assert not (tmp_path / "parts").exists()


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
    # the grid picks its own number of workers; no setting chooses it
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


def test_datagen_negative_profile_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert main(["datagen", "--n", "10", "--seed", "1", "--out", str(out), "--profile", "add=1.5,sub=-0.5"]) == 2
    assert "config error: profile proportions must be >= 0, got sub=-0.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("profile, named", [("sub=1,sub=0,add=1", "sub"), ("add=0,ADD=1,sub=0", "add")],
                         ids=["same-key", "same-key-other-case"])
def test_datagen_class_named_twice_is_config_error(tmp_path, capsys, profile, named):
    out = tmp_path / "y.jsonl"
    assert main(["datagen", "--n", "10", "--seed", "1", "--out", str(out), "--profile", profile]) == 2
    assert capsys.readouterr().err == f"config error: profile names class {named!r} twice\n"
    assert not out.exists()


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


def write_tsv(path, records):
    path.write_text("".join(f"{r.problem_text}\t{r.equation_text}\n" for r in records), encoding="utf-8")


def test_split_reads_a_tsv_file_by_its_suffix(tmp_path):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "10", "--seed", "2", "--out", str(data)])
    records = ds.load_dataset(data)
    write_tsv(tmp_path / "data.tsv", records)
    assert main(["split", "--in", str(tmp_path / "data.tsv"), "--out", str(tmp_path / "parts"), "--seed", "4"]) == 0
    parts = [r for name in ("train", "validation", "test") for r in ds.load_dataset(tmp_path / "parts" / f"{name}.jsonl")]
    # a TSV record's id is its line number
    assert sorted((int(r.id), r.problem_text, r.equation_text) for r in parts) == [
        (i, r.problem_text, r.equation_text) for i, r in enumerate(records, 1)]


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
    assert f"data error: {data}, line 2: 'problem' and 'equation' must be strings" in capsys.readouterr().err
    assert not (tmp_path / "parts").exists()


def test_split_bad_ratios_is_config_error(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "10", "--out", str(data)])
    assert main(["split", "--in", str(data), "--out", str(tmp_path / "p"),
                 "--ratios", "0.8,0.1,0.2"]) == 2
    assert "sum to 1" in capsys.readouterr().err


def test_split_checks_ratios_before_reading_input(tmp_path, capsys):
    assert main(["split", "--in", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "d"),
                 "--ratios", "0.5,0.5,0.5"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "d").exists()


# --- solve ------------------------------------------------------------------------


def test_solve_equation_prints_value(capsys):
    assert main(["solve", "--equation", "x=(7-3)"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_solve_equation_handles_bengali_digits_and_fractions(capsys):
    assert main(["solve", "--equation", "x = ৭ / ২"]) == 0
    assert capsys.readouterr().out.strip() == "3.5"
    assert main(["solve", "--equation", "x = 1 / 3"]) == 0
    assert capsys.readouterr().out.strip() == "1/3"


def test_solve_equation_10000_term_sum(capsys):
    assert main(["solve", "--equation", "x = " + "+".join(["1"] * 10_000)]) == 0
    assert capsys.readouterr().out.strip() == "10000"


def test_solve_equation_5000_nested_parentheses_is_data_error(capsys):
    assert main(["solve", "--equation", "x = " + "(" * 5_000 + "1" + ")" * 5_000]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "data error: more than 100 nested parentheses (offset 104)\n"


def test_solve_division_by_zero_is_runtime_error(capsys):
    assert main(["solve", "--equation", "x = 5 / 0"]) == 4
    assert "runtime error" in capsys.readouterr().err


def test_solve_unparseable_equation_is_data_error(capsys):
    assert main(["solve", "--equation", "x = )"]) == 3
    assert "data error" in capsys.readouterr().err


def test_solve_requires_exactly_one_input(capsys):
    assert main(["solve"]) == 2
    assert main(["solve", "some problem", "--equation", "x = 1"]) == 2


SUBCOMMAND_OPTIONS = {
    "datagen": ["-h", "--help", "--n", "--seed", "--out", "--profile", "--allow-fractions"],
    "split": ["-h", "--help", "--in", "--out", "--seed", "--ratios"],
    "train": ["-h", "--help", "--config", "--seed"],
    "eval": ["-h", "--help", "--config", "--in", "--out", "--checkpoint", "--predictions", "--predictor-cmd",
             "--beam", "--tolerance"],
    "solve": ["-h", "--help", "problem", "--equation", "--config", "--checkpoint", "--beam"],
    "grid": ["-h", "--help", "--config", "--seed"],
}


def test_every_subcommand_option_is_listed():
    # a new flag is a settable value to test: it shows up here as a one-line diff
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: [s for action in parser._actions for s in (action.option_strings or [action.dest])]
               for name, parser in sub.choices.items()}
    assert options == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv, unknown", [
    (["grid", "--parallel"], "--parallel"),
    (["split", "--in", "data.tsv", "--out", "parts", "--format", "tsv"], "--format tsv"),
    (["eval", "--format", "tsv"], "--format tsv"),
    (["eval", "--seed", "1"], "--seed 1"),
], ids=["grid-parallel", "split-format", "eval-format", "eval-seed"])
def test_removed_flag_is_usage_error(tmp_path, capsys, monkeypatch, argv, unknown):
    # the grid picks its workers, a .tsv suffix picks the format and eval draws no random numbers
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unknown}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_train_duplicate_validation_id_is_data_error_naming_the_file(tmp_path, capsys):
    make_parts(tmp_path)
    validation = tmp_path / "parts" / "validation.jsonl"
    validation.write_text('{"id": "1", "problem": "p", "equation": "x = 1"}\n' * 2, encoding="utf-8")
    assert main(["train", "--config", str(write_config(tmp_path))]) == 3
    assert capsys.readouterr().err == f"data error: {validation}, line 2: duplicate id '1'\n"


def test_train_duplicate_vocab_token_is_data_error_naming_the_file(tmp_path, capsys):
    make_parts(tmp_path)
    vocab = tmp_path / "vocab"
    vocab.mkdir()
    (vocab / "src_vocab.txt").write_text("\n".join([*RESERVED_TOKENS, "আম", "আম"]) + "\n", encoding="utf-8")
    (vocab / "tgt_vocab.txt").write_text("\n".join(RESERVED_TOKENS) + "\n", encoding="utf-8")
    assert main(["train", "--config", str(write_config(tmp_path))]) == 3
    assert capsys.readouterr().err == f"data error: {vocab / 'src_vocab.txt'}: duplicate tokens in vocabulary\n"


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
    assert report_path.read_text(encoding="utf-8") == json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def test_eval_reads_a_tsv_test_set_by_its_suffix(tmp_path):
    data, _ = write_gold_predictions(tmp_path, 6)
    records = ds.load_dataset(data)
    write_tsv(tmp_path / "test.tsv", records)
    preds = tmp_path / "preds_tsv.jsonl"
    preds.write_text("".join(json.dumps({"id": str(i), "equation": r.equation_text if i % 2 else "x = 0"},
                                        ensure_ascii=False) + "\n" for i, r in enumerate(records, 1)),
                     encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["eval", "--in", str(tmp_path / "test.tsv"), "--predictions", str(preds),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [r["id"] for r in report["per_record"]] == ["1", "2", "3", "4", "5", "6"]
    assert report["solution_accuracy"] == 0.5


def test_eval_predictions_10000_term_sum_gets_a_verdict(tmp_path):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "2", "--seed", "8", "--out", str(data)])
    records = ds.load_dataset(data)
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"id": r.id, "equation": "x = " + "+".join(["1"] * 10_000)}) + "\n"
                             for r in records), encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["eval", "--in", str(data), "--predictions", str(preds), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [r["solved_value"] for r in report["per_record"]] == ["10000", "10000"]
    assert {r["verdict"] for r in report["per_record"]} <= {"correct", "wrong"}


def test_eval_predictions_5000_nested_parentheses_are_unparseable(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "3", "--seed", "8", "--out", str(data)])
    records = ds.load_dataset(data)
    deep = "x = " + "(" * 5_000 + "1" + ")" * 5_000
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"id": r.id, "equation": deep if i else r.equation_text}) + "\n"
                             for i, r in enumerate(records)), encoding="utf-8")
    report_path = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--in", str(data), "--predictions", str(preds), "--out", str(report_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [r["verdict"] for r in report["per_record"]] == ["correct", "unparseable", "unparseable"]
    assert report["per_record"][1]["predicted"] == deep


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


@pytest.mark.parametrize("flags", [
    ["--predictor-cmd", ""],  # splits to no words
    ["--predictor-cmd", "'x"],  # unbalanced quotes
    ["--predictions", "", "--predictor-cmd", "cat"],
    ["--predictions", ""],  # an empty path, not a checkpoint run
])
def test_eval_malformed_external_flags_are_config_errors(tmp_path, capsys, flags):
    # found before the test set or a checkpoint is read: neither exists here
    report_path = tmp_path / "r.json"
    assert main(["eval", "--in", str(tmp_path / "missing.jsonl"), "--checkpoint", str(tmp_path / "no.ckpt"),
                 "--out", str(report_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not report_path.exists()


@pytest.mark.parametrize("command, flag", [
    ("eval", "--in"), ("eval", "--out"), ("eval", "--checkpoint"), ("eval", "--predictions"),
    ("solve", "--checkpoint"),
])
def test_empty_path_flag_is_config_error(trained, capsys, command, flag):
    # every file the config names exists, so falling back to it would succeed
    root, _ = trained
    config = str(root / "run.cfg")
    out = root / "report.json"
    before = out.read_bytes() if out.exists() else None
    argv = ["eval", "--config", config] if command == "eval" else ["solve", "--config", config, "problem"]
    assert main([*argv, flag, ""]) == 2
    assert capsys.readouterr().err == f"config error: {flag} needs a path, got an empty value\n"
    assert (out.read_bytes() if out.exists() else None) == before


def test_eval_predictor_that_cannot_start_is_runtime_error(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["datagen", "--n", "3", "--out", str(data)])
    missing = str(tmp_path / "no-such-program")
    assert main(["eval", "--in", str(data), "--out", str(tmp_path / "r.json"),
                 "--predictor-cmd", shlex.quote(missing)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and missing in err and err.count("\n") == 1


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


def test_beam_zero_and_one_both_decode_greedily(tmp_path, capsys):
    # one decoder: --beam 0 runs it at width 1, so eval's reports differ only
    # in metadata.beam and solve prints the same lines; eval.beam = 0 in a
    # config file acts as --beam 0
    make_parts(tmp_path)
    config = write_config(tmp_path)
    text = config.read_text(encoding="utf-8").replace("train.epochs = 2", "train.epochs = 60")
    config.write_text(text, encoding="utf-8")  # enough to fit the training set
    assert main(["train", "--config", str(config)]) == 0
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(text + "\neval.beam = 0\n", encoding="utf-8")
    train_set = tmp_path / "parts" / "train.jsonl"
    problems = [json.loads(line)["problem"] for line in train_set.read_text(encoding="utf-8").splitlines()[:3]]
    runs = {}
    for name, flags in (("flag 0", ["--config", str(config), "--beam", "0"]),
                        ("flag 1", ["--config", str(config), "--beam", "1"]),
                        ("key 0", ["--config", str(keyed)])):
        capsys.readouterr()
        assert main(["eval", *flags, "--in", str(train_set)]) == 0
        printed = [capsys.readouterr()]
        for problem in problems:
            assert main(["solve", *flags, problem]) == 0
            printed.append(capsys.readouterr())
        runs[name] = printed, json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert runs["flag 0"] == runs["key 0"]
    (printed0, report0), (printed1, report1) = runs["flag 0"], runs["flag 1"]
    assert printed1 == printed0
    assert all(out.out.startswith("equation: x = ") and out.out.count("\n") == 2 for out in printed0[1:])
    assert report0["solution_accuracy"] > 0.5
    assert (report0["metadata"].pop("beam"), report1["metadata"].pop("beam")) == (0, 1)
    assert report1 == report0


@pytest.mark.parametrize("command", ["train", "grid"])
def test_odd_d_model_is_config_error(tmp_path, capsys, monkeypatch, command):
    make_parts(tmp_path)
    calls = count_train_calls(monkeypatch)
    config = write_config(tmp_path, extra="model.d_model = 9\nmodel.n_heads = 3\n")
    config.write_text(config.read_text(encoding="utf-8").replace("model.d_model = 16\nmodel.n_heads = 2\n", ""),
                      encoding="utf-8")
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == "config error: d_model must be even, got 9\n"
    assert calls == [] and not (tmp_path / "model.ckpt").exists() and not (tmp_path / "grid.json").exists()


def no_position_table(max_len, d_model):
    raise AssertionError(f"built a {max_len} x {d_model} position table")


@pytest.mark.parametrize("command", ["train", "grid"])
def test_max_len_past_its_bound_is_config_error(tmp_path, capsys, monkeypatch, command):
    make_parts(tmp_path)
    monkeypatch.setattr(mwp.model.network, "positional_encoding", no_position_table)
    calls = count_train_calls(monkeypatch)
    config = write_config(tmp_path, extra="grid.batch_sizes = 4\ngrid.epochs = 1\n")
    huge = 10**12
    config.write_text(config.read_text(encoding="utf-8").replace("model.max_len = 48", f"model.max_len = {huge}"),
                      encoding="utf-8")
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: max_len must be at most {MAX_LEN_LIMIT}, got {huge}\n"
    assert calls == [] and not (tmp_path / "vocab").exists()
    assert not (tmp_path / "model.ckpt").exists() and not (tmp_path / "grid.json").exists()


def test_max_len_bound_is_inclusive():
    assert ModelConfig(10, 10, max_len=MAX_LEN_LIMIT).max_len == MAX_LEN_LIMIT
    with pytest.raises(ValueError, match=f"max_len must be at most {MAX_LEN_LIMIT}"):
        ModelConfig(10, 10, max_len=MAX_LEN_LIMIT + 1)


def test_bad_config_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model.width = 64\n", encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 2
    assert "unknown key" in capsys.readouterr().err


def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "argv, settings, with_data, expected",
    [
        (["train"], {"train.learning_rate": "-1"}, True, "learning_rate must be > 0, got -1.0"),
        (["train"], {"model.d_model": "10", "model.n_heads": "3"}, True,
         "d_model (10) must be divisible by n_heads (3)"),
        (["train"], {"train.batch_size": "0"}, False, "batch_size must be >= 1, got 0"),
        (["train"], {"train.learning_rate": "nan"}, True, "learning_rate must be > 0, got nan"),
        (["train"], {"train.learning_rate": "inf"}, True, "learning_rate must be finite, got inf"),
        (["train"], {"train.clip_norm": "nan"}, True, "clip_norm must be > 0 when set, got nan"),
        (["train"], {"train.eps": "-1"}, True, "eps must be > 0, got -1.0"),
        (["grid"], {"train.eps": "nan"}, True, "eps must be > 0, got nan"),
        (["split", "--in", "data.jsonl", "--out", ""], {}, True, "--out needs a path, got an empty value"),
        (["split", "--in", "", "--out", "parts"], {}, True, "--in needs a path, got an empty value"),
        (["datagen", "--n", "3", "--out", ""], {}, False, "--out needs a path, got an empty value"),
    ],
    ids=["train-negative-lr", "train-heads-do-not-divide", "train-bad-setting-no-data", "train-nan-lr",
         "train-inf-lr", "train-nan-clip-norm", "train-negative-eps", "grid-nan-eps", "split-empty-out",
         "split-empty-in", "datagen-empty-out"],
)
def test_config_error_writes_no_file(tmp_path, capsys, monkeypatch, argv, settings, with_data, expected):
    # the working directory is tmp_path, so a file written there shows up too
    monkeypatch.chdir(tmp_path)
    if with_data:
        make_parts(tmp_path)
    config = write_config(tmp_path)
    lines = [line for line in config.read_text(encoding="utf-8").splitlines() if line.partition(" =")[0] not in settings]
    config.write_text("\n".join(lines + [f"{key} = {value}" for key, value in settings.items()]) + "\n",
                      encoding="utf-8")
    before = files_under(tmp_path)
    if argv[0] in ("train", "grid"):
        argv = [*argv, "--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert files_under(tmp_path) == before


# --- grid --------------------------------------------------------------------------


def test_grid_trains_every_cell(tmp_path, capsys):
    make_parts(tmp_path)
    config = write_config(tmp_path, extra="grid.batch_sizes = 4\ngrid.epochs = 1,2\n")
    assert main(["grid", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    text = (tmp_path / "grid.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, ensure_ascii=False) + "\n"
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


@pytest.mark.parametrize("part, field, value, expected", [
    ("train", "problem_text", "আম " * 60, "1 record(s) exceed max_len=48: [{id}]"),
    ("validation", "equation_text", "x = 3 +", "record {id}: bad equation: unexpected end"),
    ("train", None, None, "no training records in {path}"),  # an empty train set
], ids=["over-long-train-record", "unparseable-validation-equation", "empty-train-set"])
def test_grid_training_data_error_is_data_error_before_training(
    tmp_path, capsys, monkeypatch, part, field, value, expected
):
    make_parts(tmp_path)
    path = tmp_path / "parts" / f"{part}.jsonl"
    records = ds.load_dataset(path)
    expected = expected.format(id=repr(records[0].id), path=path)
    if field is None:
        records = []
    else:
        setattr(records[0], field, value)
    ds.save_dataset(records, path)
    calls = count_train_calls(monkeypatch)
    config = write_config(tmp_path, extra="grid.batch_sizes = 4,8\ngrid.epochs = 0,1\n")
    assert main(["grid", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: " + expected)
    assert calls == [] and not (tmp_path / "grid.json").exists()


def test_grid_reads_its_inputs_once(tmp_path, monkeypatch):
    make_parts(tmp_path)
    counts = {"load_run_config": 0, "prepare_pairs": 0}
    for name in counts:
        real = getattr(mwp.cli, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mwp.cli, name, counted)
    code, rows = grid_rows(tmp_path, "2,4", "0,1")
    assert code == 0 and len(rows) == 4 and all("error" not in r for r in rows)
    # one config, and one prepare_pairs each for the train and validation records
    assert counts == {"load_run_config": 1, "prepare_pairs": 2}


def test_grid_workers_capped_by_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _grid_workers(6) == 2
    assert _grid_workers(1) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _grid_workers(6) == 3


def grid_rows(tmp_path, batch_sizes, epochs):
    """Exit code and grid.json rows of one grid run on the split under tmp_path."""
    config = write_config(tmp_path, extra=f"grid.batch_sizes = {batch_sizes}\ngrid.epochs = {epochs}\n")
    code = main(["grid", "--config", str(config)])
    return code, json.loads((tmp_path / "grid.json").read_text(encoding="utf-8"))["rows"]


def grid_workers(monkeypatch, workers):
    """Make the grid run on ``workers`` workers whatever this host's CPU count:
    one trains in this process, more start the worker pool."""
    monkeypatch.setattr(mwp.cli, "_grid_workers", lambda jobs: workers)


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
    grid_workers(monkeypatch, 1)  # the count sees only in-process train calls
    calls = count_train_calls(monkeypatch)
    code, rows = grid_rows(tmp_path, "2,4,2", "3,1")
    assert code == 0
    assert calls == [(2, 3), (4, 3)]
    assert [(r["batch_size"], r["epochs"]) for r in rows] == [(2, 3), (2, 1), (4, 3), (4, 1), (2, 3), (2, 1)]
    assert rows[4:] == rows[:2]


def test_grid_parallel_matches_serial(tmp_path, monkeypatch):
    make_parts(tmp_path)
    grid_workers(monkeypatch, 1)
    assert grid_rows(tmp_path, "2,4", "2,1")[0] == 0
    serial = (tmp_path / "grid.json").read_bytes()
    grid_workers(monkeypatch, 2)
    assert grid_rows(tmp_path, "2,4", "2,1")[0] == 0
    assert (tmp_path / "grid.json").read_bytes() == serial


def test_grid_with_one_worker_never_starts_the_pool(tmp_path, monkeypatch):
    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} was started")

    make_parts(tmp_path)
    monkeypatch.setattr(mwp.cli, "_worker_pool", no_pool)
    calls = count_train_calls(monkeypatch)
    # one batch size needs one worker on any host
    assert grid_rows(tmp_path, "4", "1")[0] == 0
    grid_workers(monkeypatch, 1)
    assert grid_rows(tmp_path, "2,4", "1")[0] == 0
    assert calls == [(4, 1), (2, 1), (4, 1)]


def test_grid_parallel_worker_error_marks_only_its_cells(tmp_path, monkeypatch):
    # a pair whose target is BOS alone makes a batch of its own fail in
    # pad_batch, so the batch-1 run fails in epoch 1 while the batch-4 run
    # trains; the spawned workers get the pair with the parent's inputs
    make_parts(tmp_path)
    real_inputs = mwp.cli._training_inputs

    def with_short_target(cfg):
        inputs = real_inputs(cfg)
        return inputs._replace(pairs=inputs.pairs + [(inputs.pairs[0][0], [BOS_ID])])

    monkeypatch.setattr(mwp.cli, "_training_inputs", with_short_target)
    grid_workers(monkeypatch, 1)
    code, serial = grid_rows(tmp_path, "1,4", "0,1")
    assert code == 4
    assert ["error" in r for r in serial] == [False, True, False, False]
    assert "at least two tokens" in serial[1]["error"]
    grid_workers(monkeypatch, 2)
    assert grid_rows(tmp_path, "1,4", "0,1") == (code, serial)


def test_worker_pool_runs_blas_on_one_thread(monkeypatch):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    with _worker_pool(1) as pool:
        seen = list(pool.map(os.getenv, names))
    assert seen == ["1", "1", "1"]
    # and this process's environment is as it was
    assert [os.environ.get(name) for name in names] == [None, "4", None]


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


def with_edited_meta(blob, edit):
    """The checkpoint bytes ``blob`` with ``edit`` applied to their metadata."""
    (meta_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    meta = json.loads(blob[start:start + meta_len])
    edit(meta)
    edited = json.dumps(meta).encode("utf-8")
    return blob[:len(MAGIC)] + struct.pack("<Q", len(edited)) + edited + blob[start + meta_len:]


def test_checkpoint_max_len_past_its_bound_is_data_error(trained, capsys, monkeypatch):
    root, blob = trained
    monkeypatch.setattr(mwp.model.network, "positional_encoding", no_position_table)
    (root / "damaged.json").unlink(missing_ok=True)  # other tests of this checkpoint write one
    assert eval_damaged(root, with_edited_meta(blob, lambda meta: meta["model_config"].update(max_len=10**12))) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: ")
    assert f"max_len must be at most {MAX_LEN_LIMIT}, got {10**12}" in err
    assert not (root / "damaged.json").exists()


@pytest.mark.parametrize("last, problem", [(None, "duplicate tokens in vocabulary"),
                                           ("<unk>", "token '<unk>' collides with a reserved token")],
                         ids=["repeated-token", "reserved-token"])
def test_checkpoint_bad_stored_vocab_is_data_error_naming_it(trained, capsys, last, problem):
    def edit(meta):
        tokens = meta["src_vocab"]
        tokens[-1] = tokens[-2] if last is None else last

    root, blob = trained
    assert eval_damaged(root, with_edited_meta(blob, edit)) == 3
    assert capsys.readouterr().err == f"data error: {root / 'damaged.ckpt'}: src_vocab: {problem}\n"


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


# --- report writer ------------------------------------------------------------------

# strings the row encoding must not mistake for structure, and scalars of every JSON type
WRITER_STRINGS = st.one_of(
    st.sampled_from(["},\n      {", "\n    },\n    {\n      ", '"', "\\", "\n", "\x00\x1f\x7f", "আম ৩", "",
                     '"per_record": []', "\u2028"]),
    st.text(max_size=12),
)
WRITER_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), WRITER_STRINGS,
    st.sampled_from([0.0, -0.0, 1e-07, 1e16, 0.1, float("inf"), float("nan")]), st.floats(),
)
FLAT_ROW = st.dictionaries(WRITER_STRINGS, WRITER_SCALARS, min_size=1, max_size=6)
WRITER_ROWS = st.one_of(
    st.lists(FLAT_ROW, min_size=1, max_size=6),
    # an empty row list, an empty row or a row that is not flat goes the general way
    st.lists(st.one_of(FLAT_ROW, st.just({}), st.dictionaries(WRITER_STRINGS, st.lists(WRITER_SCALARS, max_size=2),
                                                              min_size=1, max_size=2)), max_size=6),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    before=st.dictionaries(WRITER_STRINGS, WRITER_SCALARS, max_size=3),
    rows=WRITER_ROWS,
    after=st.dictionaries(WRITER_STRINGS, st.one_of(WRITER_SCALARS, st.dictionaries(WRITER_STRINGS, WRITER_SCALARS,
                                                                                     max_size=2)), max_size=3),
)
def test_write_json_bytes_equal_indent_2(tmp_path, before, rows, after):
    payload = {**before, "per_record": rows, **{k: v for k, v in after.items() if k != "per_record"}}
    _write_json(tmp_path / "report.json", payload)
    assert (tmp_path / "report.json").read_bytes() == (json.dumps(payload, indent=2, ensure_ascii=False)
                                                       + "\n").encode("utf-8")

"""Atomic artifact writes: a failed write leaves the old file and no temp file."""

import json
import os

import numpy as np
import pytest

from mwp.atomic import atomic_file, write_text_atomic
from mwp.cli import main
from mwp.model.checkpoint import load_checkpoint, save_checkpoint
from mwp.model.config import ModelConfig
from mwp.model.network import init_parameters
from mwp.preprocess import Vocab

CONFIG = ModelConfig(src_vocab_size=10, tgt_vocab_size=9, d_model=8, n_heads=2,
                     d_ff=16, n_encoder_layers=1, n_decoder_layers=1,
                     dropout=0.0, max_len=12)


def test_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    write_text_atomic(path, "নতুন\n")
    assert path.read_text(encoding="utf-8") == "নতুন\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_creates_missing_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_text_atomic(path, "নতুন\n")
    assert path.read_text(encoding="utf-8") == "নতুন\n"
    assert os.listdir(path.parent) == ["out.txt"]


def test_failure_midway_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")
    with pytest.raises(RuntimeError, match="disk full"):
        with atomic_file(path) as fh:
            fh.write(b"half of the new")
            raise RuntimeError("disk full")
    assert path.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failure_without_old_file_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_file(tmp_path / "new.bin") as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    assert os.listdir(tmp_path) == []


def test_mode_follows_umask_like_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    write_text_atomic(tmp_path / "atomic.txt", "x")
    assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode


def test_checkpoint_write_failing_midway_keeps_old_checkpoint(tmp_path):
    params = init_parameters(CONFIG, np.random.default_rng(0))
    src_vocab = Vocab(["আম", "কলা", "৫", "টি", "মোট", "কত"])
    tgt_vocab = Vocab(["x", "=", "5", "+", "3"])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CONFIG, src_vocab, tgt_vocab)
    before = path.read_bytes()
    # tensors are written in sorted key order, so every real tensor is on
    # disk before the last one fails to convert to float64
    bad = dict(params, zz_last=np.array(["not a number"]))
    with pytest.raises(ValueError):
        save_checkpoint(path, bad, CONFIG, src_vocab, tgt_vocab)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]
    assert load_checkpoint(path).params.keys() == params.keys()


def test_eval_report_is_replaced_whole(tmp_path):
    # the report is written through the same helper: the old one is replaced
    # and no temp file is left beside it
    data = tmp_path / "test.jsonl"
    data.write_text(json.dumps({"id": "a", "problem": "২ আর ৩ যোগ কর", "equation": "x = 2 + 3"}) + "\n",
                    encoding="utf-8")
    preds = tmp_path / "p.jsonl"
    preds.write_text(json.dumps({"id": "a", "equation": "x = 2 + 3"}) + "\n", encoding="utf-8")
    report = tmp_path / "out" / "report.json"
    report.parent.mkdir()
    report.write_text("stale", encoding="utf-8")
    assert main(["eval", "--in", str(data), "--predictions", str(preds), "--out", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["solution_accuracy"] == 1.0
    assert os.listdir(report.parent) == ["report.json"]

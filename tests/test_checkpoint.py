"""Checkpoint format tests: round-trips, byte stability, corruption."""

import json
import struct

import numpy as np
import pytest

from mwp.cli import main
from mwp.model.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mwp.model.config import ModelConfig
from mwp.model.network import init_parameters, parameter_shapes
from mwp.preprocess import Vocab

CONFIG = ModelConfig(src_vocab_size=10, tgt_vocab_size=9, d_model=8, n_heads=2,
                     d_ff=16, n_encoder_layers=1, n_decoder_layers=1,
                     dropout=0.0, max_len=12)


def make_checkpoint(tmp_path, extra=None, seed=0):
    params = init_parameters(CONFIG, np.random.default_rng(seed))
    src_vocab = Vocab(["আম", "কলা", "৫", "টি", "মোট", "কত"])
    tgt_vocab = Vocab(["x", "=", "5", "+", "3"])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CONFIG, src_vocab, tgt_vocab, extra=extra)
    return path, params, src_vocab, tgt_vocab


def test_round_trip_is_exact(tmp_path):
    path, params, src_vocab, tgt_vocab = make_checkpoint(tmp_path, extra={"epochs": 3})
    ckpt = load_checkpoint(path)
    assert ckpt.params.keys() == params.keys()
    for key in params:
        np.testing.assert_array_equal(ckpt.params[key], params[key])
        assert ckpt.params[key].dtype == np.float64
    assert ckpt.config == CONFIG
    assert ckpt.src_vocab.id_to_token == src_vocab.id_to_token
    assert ckpt.tgt_vocab.id_to_token == tgt_vocab.id_to_token
    assert ckpt.extra == {"epochs": 3}


def test_saving_twice_is_byte_identical(tmp_path):
    params = init_parameters(CONFIG, np.random.default_rng(1))
    vocab = Vocab(["a", "b"])
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(first, params, CONFIG, vocab, vocab)
    save_checkpoint(second, params, CONFIG, vocab, vocab)
    assert first.read_bytes() == second.read_bytes()


def test_bengali_vocab_survives_round_trip(tmp_path):
    path, _, src_vocab, _ = make_checkpoint(tmp_path)
    ckpt = load_checkpoint(path)
    assert "আম" in ckpt.src_vocab.token_to_id
    assert ckpt.src_vocab.id_of("আম") == src_vocab.id_of("আম")


def test_loaded_params_are_writable_copies(tmp_path):
    path, params, _, _ = make_checkpoint(tmp_path, extra={"epochs": 3})
    ckpt = load_checkpoint(path)
    for key in ckpt.params:
        loaded = load_checkpoint(path).params
        loaded[key][...] = -7.0  # must not raise, and leaves every other tensor as saved
        for other in loaded:
            if other != key:
                np.testing.assert_array_equal(loaded[other], params[other])
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, ckpt.params, ckpt.config, ckpt.src_vocab, ckpt.tgt_vocab, extra=ckpt.extra)
    assert again.read_bytes() == path.read_bytes()


def test_truncated_tensor_data_names_the_first_short_tensor(tmp_path):
    path, params, _, _ = make_checkpoint(tmp_path)
    data = path.read_bytes()
    keys = sorted(params)
    # cut the file inside the second tensor: the first one is whole
    tensor_start = len(data) - 8 * sum(p.size for p in params.values())
    path.write_bytes(data[: tensor_start + 8 * params[keys[0]].size + 4])
    with pytest.raises(ValueError, match=f"truncated tensor data for '{keys[1]}'"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path, _, _, _ = make_checkpoint(tmp_path)
    data = path.read_bytes()
    path.write_bytes(b"NOTCKPT0\n" + data[len(MAGIC):])
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path, params, src_vocab, tgt_vocab = make_checkpoint(tmp_path)
    data = path.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    blob = data[start : start + meta_len].replace(b'"version":1', b'"version":99')
    assert len(blob) == meta_len + 1
    path.write_bytes(data[:len(MAGIC)] + struct.pack("<Q", len(blob)) + blob + data[start + meta_len:])
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(MAGIC + b"\x00\x01")
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_truncated_metadata_rejected(tmp_path):
    path, _, _, _ = make_checkpoint(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(MAGIC) + 8 + 4])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_truncated_tensor_data_rejected(tmp_path):
    path, _, _, _ = make_checkpoint(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="truncated tensor"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path, _, _, _ = make_checkpoint(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


def test_vocab_missing_reserved_prefix_rejected(tmp_path):
    path, _, _, _ = make_checkpoint(tmp_path)
    data = path.read_bytes()
    mangled = data.replace(b'"<pad>","<bos>"', b'"<pxd>","<bos>"')
    assert mangled != data
    path.write_bytes(mangled)
    with pytest.raises(ValueError, match="reserved tokens"):
        load_checkpoint(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.ckpt")


# --- metadata checks -----------------------------------------------------------


def read_meta(path):
    data = path.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    return json.loads(data[start : start + meta_len]), data[start + meta_len :]


def write_raw(path, meta, payload=b""):
    """A checkpoint with a valid magic and length around arbitrary metadata."""
    blob = json.dumps(meta).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)


def assert_solve_exits_3(path, capsys):
    assert main(["solve", "--checkpoint", str(path), "x"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err


def test_parameter_shapes_match_init_parameters():
    params = init_parameters(CONFIG, np.random.default_rng(0))
    assert list(parameter_shapes(CONFIG)) == list(params)
    assert parameter_shapes(CONFIG) == {k: v.shape for k, v in params.items()}


def test_metadata_without_model_keys_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.ckpt"
    write_raw(path, {"version": 1})
    with pytest.raises(ValueError, match="lacks model_config, src_vocab, tgt_vocab, tensors"):
        load_checkpoint(path)
    assert_solve_exits_3(path, capsys)


def test_empty_tensor_list_exits_3(tmp_path, capsys):
    path, _, _, _ = make_checkpoint(tmp_path)
    meta, _ = read_meta(path)
    meta["tensors"] = []
    write_raw(path, meta)
    with pytest.raises(ValueError, match="tensors do not match"):
        load_checkpoint(path)
    assert_solve_exits_3(path, capsys)


def test_tensor_shape_mismatch_rejected(tmp_path):
    path, _, _, _ = make_checkpoint(tmp_path)
    meta, payload = read_meta(path)
    entry = next(e for e in meta["tensors"] if e["key"] == "out.w")
    entry["shape"] = entry["shape"][::-1]  # same byte count, wrong layout
    write_raw(path, meta, payload)
    with pytest.raises(ValueError, match=r"wrong shape \['out.w'\]"):
        load_checkpoint(path)


def test_unknown_tensor_name_rejected(tmp_path):
    path, _, _, _ = make_checkpoint(tmp_path)
    meta, payload = read_meta(path)
    meta["tensors"][0]["key"] = "enc9.att.w_q"
    write_raw(path, meta, payload)
    with pytest.raises(ValueError, match="unexpected"):
        load_checkpoint(path)


def test_vocab_size_must_match_config(tmp_path):
    path, _, _, _ = make_checkpoint(tmp_path)
    meta, payload = read_meta(path)
    meta["tgt_vocab"].append("-")
    write_raw(path, meta, payload)
    with pytest.raises(ValueError, match="tgt_vocab has 10 tokens, the model config 9"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "change",
    [
        lambda m: m.update(model_config={"d_model": 8}),
        lambda m: m.update(model_config=[1, 2]),
        lambda m: m.update(src_vocab="abc"),
        lambda m: m.update(tensors=[{"shape": [2]}]),
        lambda m: m.update(tensors=[{"key": ["x"], "shape": [2]}]),
        lambda m: m.update(extra=[]),
    ],
    ids=["partial-config", "config-not-object", "vocab-not-list", "entry-without-key", "unhashable-key", "extra-not-object"],
)
def test_malformed_metadata_exits_3(tmp_path, capsys, change):
    path, _, _, _ = make_checkpoint(tmp_path)
    meta, payload = read_meta(path)
    change(meta)
    write_raw(path, meta, payload)
    with pytest.raises(ValueError):
        load_checkpoint(path)
    assert_solve_exits_3(path, capsys)


def test_metadata_that_is_not_an_object_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.ckpt"
    write_raw(path, [1])
    assert_solve_exits_3(path, capsys)

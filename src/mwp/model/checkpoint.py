"""Deterministic binary checkpoints.

Layout: a magic line, an 8-byte little-endian length, a canonical JSON
metadata blob (model config, both vocabularies, tensor manifest, optional
extras), then the raw float64 tensor bytes concatenated in manifest order.
The encoding has no timestamps or other ambient state, so saving the same
model twice yields byte-identical files; tests rely on that.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..atomic import atomic_file
from ..preprocess import RESERVED_TOKENS, Vocab
from .config import ModelConfig
from .network import Parameters, parameter_shapes

MAGIC = b"MWPCKPT1\n"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    params: Parameters
    config: ModelConfig
    src_vocab: Vocab
    tgt_vocab: Vocab
    extra: dict = field(default_factory=dict)


def save_checkpoint(
    path: str | Path,
    params: Parameters,
    config: ModelConfig,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    extra: dict | None = None,
) -> None:
    """Write params plus everything needed to decode with them, atomically."""
    manifest = [{"key": k, "shape": list(params[k].shape)} for k in sorted(params)]
    meta = {
        "version": FORMAT_VERSION,
        "model_config": config.as_dict(),
        "src_vocab": src_vocab.id_to_token,
        "tgt_vocab": tgt_vocab.id_to_token,
        "tensors": manifest,
        "extra": extra or {},
    }
    blob = json.dumps(meta, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    with atomic_file(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for entry in manifest:
            # the array's own buffer, so no tensor is copied on the way out
            fh.write(np.ascontiguousarray(params[entry["key"]], dtype=np.float64).data)


def load_checkpoint(path: str | Path) -> Checkpoint:
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a model checkpoint (bad magic)")
    offset = len(MAGIC)
    if len(data) < offset + 8:
        raise ValueError(f"{path}: truncated checkpoint header")
    (meta_len,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    if len(data) < offset + meta_len:
        raise ValueError(f"{path}: truncated checkpoint metadata")
    meta = json.loads(data[offset : offset + meta_len].decode("utf-8"))
    offset += meta_len
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint metadata is not an object")
    if meta.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
    missing = [k for k in ("model_config", "src_vocab", "tgt_vocab", "tensors") if k not in meta]
    if missing:
        raise ValueError(f"{path}: checkpoint metadata lacks {', '.join(missing)}")
    try:
        config = ModelConfig.from_dict(meta["model_config"])
    except TypeError as exc:
        raise ValueError(f"{path}: bad model_config: {exc}") from exc
    src_vocab = _vocab_from_tokens(path, "src_vocab", meta["src_vocab"], config.src_vocab_size)
    tgt_vocab = _vocab_from_tokens(path, "tgt_vocab", meta["tgt_vocab"], config.tgt_vocab_size)
    extra = meta.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError(f"{path}: checkpoint extra is not an object")
    manifest = _manifest(path, meta["tensors"], parameter_shapes(config))
    params: Parameters = {}
    for key, shape in manifest:
        size = int(np.prod(shape))
        nbytes = size * 8
        if len(data) < offset + nbytes:
            raise ValueError(f"{path}: truncated tensor data for {key!r}")
        params[key] = np.frombuffer(data, dtype=np.float64, count=size, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after tensor data")
    # per copy: one 1 MB temporary over the whole byte buffer made repeated loads ~12 ms slower
    if not all(np.isfinite(p).all() for p in params.values()):
        raise ValueError(f"{path}: checkpoint tensors hold non-finite values")
    return Checkpoint(params=params, config=config, src_vocab=src_vocab, tgt_vocab=tgt_vocab, extra=extra)


def _manifest(path, tensors, expected: dict[str, tuple[int, ...]]) -> list[tuple[str, tuple[int, ...]]]:
    """(key, shape) per tensor entry, which must name exactly the model's parameters."""
    try:
        manifest = [(entry["key"], tuple(entry["shape"])) for entry in tensors]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{path}: malformed tensor manifest") from exc
    if not all(isinstance(key, str) for key, _ in manifest):
        raise ValueError(f"{path}: malformed tensor manifest")
    if len(manifest) != len(expected) or dict(manifest) != expected:
        names = {key for key, _ in manifest}
        unexpected = sorted(names - set(expected))
        absent = sorted(set(expected) - names)
        wrong = sorted(k for k, shape in manifest if k in expected and shape != expected[k])
        raise ValueError(
            f"{path}: tensors do not match the model config "
            f"(missing {absent[:3]}, unexpected {unexpected[:3]}, wrong shape {wrong[:3]})"
        )
    return [(key, expected[key]) for key, _ in manifest]


def _vocab_from_tokens(path, name, tokens, size: int) -> Vocab:
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"{path}: {name} is not a list of tokens")
    if tuple(tokens[:4]) != RESERVED_TOKENS:
        raise ValueError(f"{path}: {name} does not start with the reserved tokens")
    if len(tokens) != size:
        raise ValueError(f"{path}: {name} has {len(tokens)} tokens, the model config {size}")
    return Vocab(tokens[4:])

"""Run configuration for the command-line pipeline.

Config files are plain text with dotted keys, one ``key = value`` pair per
line; ``#`` starts a full-line comment and blank lines are ignored. Every
key has a default, so an empty (or absent) config runs the reference
settings: dropout 0.1, learning rate 1e-4, batch size 8, 15 epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .model.config import ModelConfig, TrainConfig


class ConfigError(ValueError):
    """A config file or command-line setting is malformed."""


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Read dotted ``key = value`` lines into a dict, with line diagnostics."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in values:
            raise ConfigError(f"{source}, line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _as_int(value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {value!r}") from exc


def _as_float(value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {value!r}") from exc


def _as_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {value!r}")


def _as_opt_float(value: str) -> float | None:
    return None if value.lower() == "none" else _as_float(value)


def _as_int_list(value: str) -> tuple[int, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected comma-separated integers, got {value!r}")
    return tuple(_as_int(p) for p in parts)


def _as_fraction_str(value: str) -> str:
    try:
        if Fraction(value) < 0:
            raise ConfigError(f"tolerance must be >= 0, got {value!r}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected a rational tolerance, got {value!r}") from exc
    return value


def validate_ratios(ratios) -> None:
    """Ratios must be three positive numbers that sum exactly to 1."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ConfigError(f"split ratios must be three positive numbers, got {ratios!r}")
    total = sum(Fraction(str(r)) for r in ratios)
    if total != 1:
        raise ConfigError(f"split ratios must sum to 1, got {ratios!r} (sum {total})")


@dataclass
class RunConfig:
    # dataset and artifact paths
    train_path: str = "runs/train.jsonl"
    validation_path: str = "runs/validation.jsonl"
    test_path: str = "runs/test.jsonl"
    vocab_dir: str = "runs/vocab"
    checkpoint_path: str = "runs/model.ckpt"
    history_path: str = "runs/history.txt"
    report_path: str = "runs/report.json"
    grid_report_path: str = "runs/grid_report.json"
    # model shape
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    dropout: float = 0.1
    max_len: int = 64
    # optimization
    batch_size: int = 8
    epochs: int = 15
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float | None = None
    # run-wide settings
    seed: int = 0
    tolerance: str = "0"
    beam: int = 0  # 0 decodes greedily
    # hyperparameter grid
    grid_batch_sizes: tuple[int, ...] = (8, 16)
    grid_epochs: tuple[int, ...] = (5, 10, 15)
    grid_parallel: bool = False

    def model_config(self, src_vocab_size: int, tgt_vocab_size: int) -> ModelConfig:
        try:
            return ModelConfig(
                src_vocab_size=src_vocab_size,
                tgt_vocab_size=tgt_vocab_size,
                d_model=self.d_model,
                n_heads=self.n_heads,
                d_ff=self.d_ff,
                n_encoder_layers=self.n_encoder_layers,
                n_decoder_layers=self.n_decoder_layers,
                dropout=self.dropout,
                max_len=self.max_len,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def train_config(self, batch_size: int | None = None, epochs: int | None = None) -> TrainConfig:
        try:
            return TrainConfig(
                batch_size=self.batch_size if batch_size is None else batch_size,
                epochs=self.epochs if epochs is None else epochs,
                learning_rate=self.learning_rate,
                beta1=self.beta1,
                beta2=self.beta2,
                eps=self.eps,
                seed=self.seed,
                clip_norm=self.clip_norm,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_KEYS = {
    "data.train": ("train_path", str),
    "data.validation": ("validation_path", str),
    "data.test": ("test_path", str),
    "paths.vocab_dir": ("vocab_dir", str),
    "paths.checkpoint": ("checkpoint_path", str),
    "paths.history": ("history_path", str),
    "paths.report": ("report_path", str),
    "paths.grid_report": ("grid_report_path", str),
    "model.d_model": ("d_model", _as_int),
    "model.n_heads": ("n_heads", _as_int),
    "model.d_ff": ("d_ff", _as_int),
    "model.n_encoder_layers": ("n_encoder_layers", _as_int),
    "model.n_decoder_layers": ("n_decoder_layers", _as_int),
    "model.dropout": ("dropout", _as_float),
    "model.max_len": ("max_len", _as_int),
    "train.batch_size": ("batch_size", _as_int),
    "train.epochs": ("epochs", _as_int),
    "train.learning_rate": ("learning_rate", _as_float),
    "train.beta1": ("beta1", _as_float),
    "train.beta2": ("beta2", _as_float),
    "train.eps": ("eps", _as_float),
    "train.clip_norm": ("clip_norm", _as_opt_float),
    "seed": ("seed", _as_int),
    "eval.tolerance": ("tolerance", _as_fraction_str),
    "eval.beam": ("beam", _as_int),
    "grid.batch_sizes": ("grid_batch_sizes", _as_int_list),
    "grid.epochs": ("grid_epochs", _as_int_list),
    "grid.parallel": ("grid_parallel", _as_bool),
}


def run_config_from_mapping(mapping: dict[str, str], source: str = "<config>") -> RunConfig:
    config = RunConfig()
    for key, raw in mapping.items():
        if key not in _KEYS:
            raise ConfigError(f"{source}: unknown key {key!r}")
        attr, convert = _KEYS[key]
        try:
            setattr(config, attr, convert(raw))
        except ConfigError as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from exc
    return config


def load_run_config(path: str | Path | None) -> RunConfig:
    """Config from a file, or pure defaults when no path is given."""
    if path is None:
        return RunConfig()
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {file}")
    return run_config_from_mapping(parse_config_text(file.read_text(encoding="utf-8"), str(file)), str(file))

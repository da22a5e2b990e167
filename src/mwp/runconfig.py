"""Run configuration for the command-line pipeline.

Config files are plain text with dotted keys, one ``key = value`` pair per
line; ``#`` starts a full-line comment and blank lines are ignored. Every
key has a default, so an empty (or absent) config runs the reference
settings. The ``model.*`` and ``train.*`` keys are named after the fields
of ``ModelConfig`` and ``TrainConfig``, which hold their defaults: a
``RunConfig`` keeps only the values a config file set.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .atomic import read_utf8
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


def _as_opt_float(value: str) -> float | None:
    return None if value.lower() == "none" else _as_float(value)


def _as_int_list(value: str) -> tuple[int, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected comma-separated integers, got {value!r}")
    return tuple(_as_int(p) for p in parts)


def as_tolerance(value: str) -> Fraction:
    """A rational solution-accuracy tolerance, at least 0."""
    try:
        tolerance = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected a rational tolerance, got {value!r}") from exc
    if tolerance < 0:
        raise ConfigError(f"tolerance must be >= 0, got {value!r}")
    return tolerance


def checked_beam(beam: int) -> int:
    """A beam size, at least 0; 0 and 1 both decode greedily."""
    if beam < 0:
        raise ConfigError(f"beam must be >= 0 (0 decodes greedily), got {beam}")
    return beam


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
    # the model.* and train.* values a config file set, by field name
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    # run-wide settings
    seed: int = 0
    tolerance: Fraction = Fraction(0)
    beam: int = 0  # 0 and 1 both decode greedily
    # hyperparameter grid
    grid_batch_sizes: tuple[int, ...] = (8, 16)
    grid_epochs: tuple[int, ...] = (5, 10, 15)

    def model_config(self, src_vocab_size: int, tgt_vocab_size: int) -> ModelConfig:
        try:
            return ModelConfig(src_vocab_size, tgt_vocab_size, **self.model)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def train_config(self, batch_size: int | None = None, epochs: int | None = None) -> TrainConfig:
        """The train settings, with ``batch_size`` and ``epochs`` replaced when given."""
        values = {**self.train, "seed": self.seed}
        if batch_size is not None:
            values["batch_size"] = batch_size
        if epochs is not None:
            values["epochs"] = epochs
        try:
            return TrainConfig(**values)
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
    "seed": ("seed", _as_int),
    "eval.tolerance": ("tolerance", as_tolerance),
    "eval.beam": ("beam", lambda value: checked_beam(_as_int(value))),
    "grid.batch_sizes": ("grid_batch_sizes", _as_int_list),
    "grid.epochs": ("grid_epochs", _as_int_list),
}

_CONVERTERS = {"int": _as_int, "float": _as_float, "float | None": _as_opt_float}

# model.<field> and train.<field> for every ModelConfig and TrainConfig field
# with a default; the seed is the run-wide "seed" key
_HYPERPARAMETER_KEYS = {
    f"{section}.{f.name}": _CONVERTERS[f.type]
    for section, cls in (("model", ModelConfig), ("train", TrainConfig))
    for f in fields(cls)
    if f.default is not MISSING and f.name != "seed"
}


def run_config_from_mapping(mapping: dict[str, str], source: str = "<config>") -> RunConfig:
    config = RunConfig()
    for key, raw in mapping.items():
        if key not in _KEYS and key not in _HYPERPARAMETER_KEYS:
            raise ConfigError(f"{source}: unknown key {key!r}")
        try:
            if key in _KEYS:
                attr, convert = _KEYS[key]
                setattr(config, attr, convert(raw))
            else:
                section, _, name = key.partition(".")
                getattr(config, section)[name] = _HYPERPARAMETER_KEYS[key](raw)
        except ConfigError as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from exc
    return config


def load_run_config(path: str | Path | None, seed: int | None = None) -> RunConfig:
    """Config from a file, or pure defaults when no path is given; a seed other
    than None replaces the configured one (the ``--seed`` flag)."""
    config = RunConfig()
    if path is not None:
        file = Path(path)
        if not file.is_file():
            raise ConfigError(f"config file not found: {file}")
        config = run_config_from_mapping(parse_config_text(read_utf8(file, ConfigError), str(file)), str(file))
    if seed is not None:
        config.seed = seed
    return config

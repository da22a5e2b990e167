"""Model and training hyperparameter containers."""

from __future__ import annotations

import math
from dataclasses import dataclass

# The largest model.max_len: the position table is max_len x d_model float64,
# 4 MB at this bound and d_model 128, and decoding takes up to max_len - 1 steps.
MAX_LEN_LIMIT = 4096


@dataclass(frozen=True)
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    dropout: float = 0.1
    max_len: int = 64

    def __post_init__(self) -> None:
        for name in ("src_vocab_size", "tgt_vocab_size", "d_model", "n_heads",
                     "d_ff", "n_encoder_layers", "n_decoder_layers", "max_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.max_len > MAX_LEN_LIMIT:
            raise ValueError(f"max_len must be at most {MAX_LEN_LIMIT}, got {self.max_len}")
        if self.d_model % 2:  # the sinusoidal position table pairs up its dimensions
            raise ValueError(f"d_model must be even, got {self.d_model}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    epochs: int = 15
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    clip_norm: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        positive = [("learning_rate", ""), ("eps", "")]
        if self.clip_norm is not None:
            positive.append(("clip_norm", " when set"))
        for name, when in positive:
            value = getattr(self, name)
            if not (value > 0):  # NaN fails here too
                raise ValueError(f"{name} must be > 0{when}, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")

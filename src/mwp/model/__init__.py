"""Numpy transformer: attention, training, decoding, checkpoints."""

from .attention import causal_mask, masked_softmax, padding_mask, positional_encoding
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ModelConfig, TrainConfig
from .decoding import beam_decode, beam_decode_batch, greedy_decode, greedy_decode_batch
from .external import FilePredictions, SubprocessPredictor, external_predict
from .network import (
    Parameters,
    backward,
    cross_entropy_loss,
    decode_logits,
    encode,
    forward,
    forward_with_tape,
    init_parameters,
)
from .optim import AdamState, adam_step, clip_gradients, global_norm, init_adam
from .training import (
    EpochStats,
    TrainResult,
    evaluate_loss,
    pad_batch,
    prepare_pairs,
    train,
)

__all__ = [
    "AdamState",
    "Checkpoint",
    "EpochStats",
    "FilePredictions",
    "ModelConfig",
    "Parameters",
    "SubprocessPredictor",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "backward",
    "beam_decode",
    "beam_decode_batch",
    "causal_mask",
    "clip_gradients",
    "cross_entropy_loss",
    "decode_logits",
    "encode",
    "evaluate_loss",
    "external_predict",
    "forward",
    "forward_with_tape",
    "global_norm",
    "greedy_decode",
    "greedy_decode_batch",
    "init_adam",
    "init_parameters",
    "load_checkpoint",
    "masked_softmax",
    "pad_batch",
    "padding_mask",
    "positional_encoding",
    "prepare_pairs",
    "save_checkpoint",
    "train",
]

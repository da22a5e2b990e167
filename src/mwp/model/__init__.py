"""Numpy transformer: attention, training, decoding, checkpoints."""

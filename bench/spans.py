"""Span recorder for the traced run.

The recorder replaces public functions of the ``mwp`` layer modules with
wrappers, at the names their callers look them up under (``mwp.cli``
imports most of them by name, so those bindings are wrapped too). Each call
becomes a span ``[name, start, end, parent, count]`` kept in memory: the
parent is the index of the enclosing span, and the count is an optional
number taken from the call's arguments or result at the boundary. Spans are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _rows(args, kwargs, result):
    return len(result)


def _positions(args, kwargs, result):
    # decoder positions computed: the (batch, time) size of decode_logits' tgt_in_ids
    return int(np.asarray(kwargs["tgt_in_ids"] if "tgt_in_ids" in kwargs else args[4]).size)


def _padding(args, kwargs, result):
    # pad_batch returns (src, tgt_in, tgt_out) padded with id 0
    src, tgt_in = result[0], result[1]
    return (int((src != 0).sum() + (tgt_in != 0).sum()), int(src.size + tgt_in.size))


def _n_records(args, kwargs, result):
    return result.n_records


# (module looked up in, attribute, span name, count)
LAYER_FUNCTIONS = [
    ("mwp.cli", "main", "cli.main", None),
    ("mwp.cli", "load_run_config", "runconfig.load_run_config", None),
    ("mwp.synth", "generate_synthetic", "synth.generate_synthetic", _rows),
    ("mwp.dataset", "load_dataset", "dataset.load_dataset", _rows),
    ("mwp.dataset", "split_dataset", "dataset.split_dataset", None),
    ("mwp.cli", "build_vocab", "preprocess.build_vocab", None),
    ("mwp.cli", "tokenize", "preprocess.tokenize", None),
    ("mwp.metrics", "tokenize", "preprocess.tokenize", None),
    ("mwp.model.training", "tokenize", "preprocess.tokenize", None),
    ("mwp.cli", "parse_equation", "equation.parse_equation", None),
    ("mwp.equation", "parse_equation", "equation.parse_equation", None),
    ("mwp.model.training", "parse_equation", "equation.parse_equation", None),
    ("mwp.cli", "solve", "equation.solve", None),
    ("mwp.equation", "solve", "equation.solve", None),
    ("mwp.cli", "evaluate_corpus", "metrics.evaluate_corpus", _n_records),
    ("mwp.metrics", "sentence_bleu", "metrics.sentence_bleu", None),
    ("mwp.metrics", "corpus_bleu", "metrics.corpus_bleu", None),
    ("mwp.cli", "FilePredictions", "external.FilePredictions", None),
    ("mwp.cli", "external_predict", "external.external_predict", _rows),
    ("mwp.cli", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("mwp.cli", "save_checkpoint", "checkpoint.save_checkpoint", None),
    ("mwp.cli", "greedy_decode", "decoding.greedy_decode", None),
    ("mwp.cli", "beam_decode", "decoding.beam_decode", None),
    ("mwp.model.decoding", "encode", "network.encode", None),
    ("mwp.model.decoding", "decode_logits", "network.decode_logits", _positions),
    ("mwp.cli", "init_parameters", "network.init_parameters", None),
    ("mwp.cli", "prepare_pairs", "training.prepare_pairs", None),
    ("mwp.cli", "train", "training.train", None),
    ("mwp.model.training", "pad_batch", "training.pad_batch", _padding),
    ("mwp.model.training", "evaluate_loss", "training.evaluate_loss", None),
    ("mwp.model.training", "backward", "network.backward", None),
    ("mwp.model.training", "forward_with_tape", "network.forward_with_tape", None),
    ("mwp.model.network", "forward_with_tape", "network.forward_with_tape", None),
    ("mwp.model.training", "adam_step", "optim.adam_step", None),
    ("mwp.model.network", "masked_softmax", "attention.masked_softmax", None),
    ("mwp.model.network", "positional_encoding", "attention.positional_encoding", None),
]

OP_PREFIX = "op:"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if count is not None:
                record[4] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, name: str):
        """A root span around one operation the benchmark runs."""
        record = [OP_PREFIX + name, time.perf_counter(), 0.0, self._stack[-1], None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def install(self, table=LAYER_FUNCTIONS) -> None:
        """Wrap every listed binding that exists; a missing one yields no spans."""
        for module_name, attr, name, count in table:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\tcount\n")
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{'' if count is None else count}\n")


class SpanTable:
    """Self times, roots and per-op selections derived from recorded spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self_time = [s[2] - s[1] for s in spans]
        self.root = list(range(len(spans)))
        self.by_name: dict[str, list[int]] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                self.self_time[parent] -= end - start
                self.root[i] = self.root[parent]

    def op_of(self, i: int) -> str | None:
        name = self.spans[self.root[i]][0]
        return name[len(OP_PREFIX):] if name.startswith(OP_PREFIX) else None

    def select(self, name: str, ops) -> list[int]:
        ops = set(ops)
        return [i for i in self.by_name.get(name, []) if self.op_of(i) in ops]

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def total(self, indices, self_only: bool = False) -> float:
        if self_only:
            return sum(self.self_time[i] for i in indices)
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices)

    def counts(self, indices) -> list:
        return [self.spans[i][4] for i in indices]

"""Per-layer metrics of a traced run, derived from its spans.

Every workload reports every metric; one whose layer the workload never
calls reads 0. Denominators that are not span counts (records decoded,
tokens emitted) come from the benchmark's own knowledge of the outputs, so
a change in how the program batches its calls does not change them.
"""

from __future__ import annotations

import statistics

from spans import OP_PREFIX, SpanTable

TIMED = ("bulk_a", "bulk_b", "request")
B8 = ("bulk_a",)  # on the train workload, mwp train at batch 8

# name -> (unit, better)
METRICS = {
    "training.train.self_ms_per_batch": ("ms", "lower"),
    "training.pad_batch.ms_per_batch": ("ms", "lower"),
    "training.pad_batch.real_token_ratio": ("ratio", "higher"),
    "network.forward_with_tape.ms_per_batch": ("ms", "lower"),
    "network.backward.self_ms_per_batch": ("ms", "lower"),
    "optim.adam_step.ms_per_batch": ("ms", "lower"),
    "optim.adam_step.share_of_step": ("ratio", "lower"),
    "optim.adam_step.share_of_step_b32": ("ratio", "lower"),
    "training.evaluate_loss.ms_per_epoch": ("ms", "lower"),
    "checkpoint.save_checkpoint.ms": ("ms", "lower"),
    "attention.masked_softmax.ms_per_call": ("ms", "lower"),
    "network.encode.ms_per_record": ("ms", "lower"),
    "network.decode_logits.ms_per_call": ("ms", "lower"),
    "network.decode_logits.calls_per_record": ("count", "lower"),
    "network.decode_logits.positions_per_output_token": ("count", "lower"),
    "network.decode_logits.positions_per_output_token_beam4": ("count", "lower"),
    "attention.positional_encoding.calls_per_record": ("count", "lower"),
    "attention.positional_encoding.ms_per_record": ("ms", "lower"),
    "decoding.greedy_decode.self_ms_per_record": ("ms", "lower"),
    "decoding.beam_decode.self_ms_per_record": ("ms", "lower"),
    "checkpoint.load_checkpoint.ms": ("ms", "lower"),
    "cli.main.self_ms_per_request": ("ms", "lower"),
    "runconfig.load_run_config.us_per_call": ("us", "lower"),
    "dataset.load_dataset.us_per_record": ("us", "lower"),
    "external.FilePredictions.us_per_record": ("us", "lower"),
    "metrics.evaluate_corpus.self_us_per_record": ("us", "lower"),
    "metrics.sentence_bleu.us_per_call": ("us", "lower"),
    "metrics.corpus_bleu.ms_per_call": ("ms", "lower"),
    "equation.parse_equation.us_per_call": ("us", "lower"),
    "equation.parse_equation.calls_per_record": ("count", "lower"),
    "equation.solve.us_per_call": ("us", "lower"),
    "preprocess.tokenize.us_per_call": ("us", "lower"),
    "synth.generate_synthetic.ms_per_1k_records": ("ms", "lower"),
    "dataset.split_dataset.ms": ("ms", "lower"),
    "preprocess.build_vocab.ms": ("ms", "lower"),
    "trace.layer_self_share": ("ratio", "higher"),
    "trace.bulk_a_items_per_s": ("items/s", "higher"),
    "trace.bulk_b_items_per_s": ("items/s", "higher"),
    "trace.request_ms_p50": ("ms", "lower"),
}


def _per(amount: float, base: float) -> float:
    return amount / base if base else 0.0


def throughput(runner, op: str) -> float:
    """Median over the run's commands of items processed per second."""
    rates = [n / s for n, s in zip(runner.items[op], runner.seconds[op])]
    return statistics.median(rates) if rates else 0.0


def per_layer(spans: list[list], runner, decode: dict[str, int], timed_wall: float) -> dict[str, float]:
    t = SpanTable(spans)

    def sel(name, ops=TIMED):
        return t.select(name, ops)

    def mean(name, ops=TIMED, scale=1e3):
        idx = sel(name, ops)
        return _per(t.total(idx), len(idx)) * scale

    def self_per(name, base, ops=TIMED, scale=1e3):
        return _per(t.total(sel(name, ops), self_only=True), base) * scale

    def count_sum(name, ops=TIMED):
        return sum(c for c in t.counts(sel(name, ops)) if c is not None)

    def adam_share(ops):
        adam = t.total(sel("optim.adam_step", ops))
        return _per(adam, adam + t.total(sel("network.backward", ops)))

    steps = len(sel("network.backward", B8))
    pads = [c for c in t.counts(sel("training.pad_batch", B8)) if c is not None]
    decoded = decode["greedy_records"] + decode["beam_records"]
    greedy_ops = ("bulk_a", "request")
    scored = count_sum("metrics.evaluate_corpus")
    parses = sel("equation.parse_equation")
    requests = len(runner.seconds["request"])
    layer_self = sum(
        t.self_time[i] for i, s in enumerate(spans) if not s[0].startswith(OP_PREFIX) and t.op_of(i) in TIMED
    )
    generated = count_sum("synth.generate_synthetic", ("gen.datagen",))
    return {
        "training.train.self_ms_per_batch": self_per("training.train", steps, B8),
        "training.pad_batch.ms_per_batch": mean("training.pad_batch", B8),
        "training.pad_batch.real_token_ratio": _per(sum(p[0] for p in pads), sum(p[1] for p in pads)),
        "network.forward_with_tape.ms_per_batch": mean("network.forward_with_tape", B8),
        "network.backward.self_ms_per_batch": self_per("network.backward", steps, B8),
        "optim.adam_step.ms_per_batch": mean("optim.adam_step", B8),
        "optim.adam_step.share_of_step": adam_share(B8),
        "optim.adam_step.share_of_step_b32": adam_share(("bulk_b",)),
        "training.evaluate_loss.ms_per_epoch": mean("training.evaluate_loss", ("bulk_a", "bulk_b")),
        "checkpoint.save_checkpoint.ms": mean("checkpoint.save_checkpoint"),
        "attention.masked_softmax.ms_per_call": mean("attention.masked_softmax"),
        "network.encode.ms_per_record": _per(t.total(sel("network.encode")), decoded) * 1e3,
        "network.decode_logits.ms_per_call": mean("network.decode_logits"),
        "network.decode_logits.calls_per_record": _per(len(sel("network.decode_logits")), decoded),
        "network.decode_logits.positions_per_output_token": _per(
            count_sum("network.decode_logits", greedy_ops), decode["greedy_tokens"]),
        "network.decode_logits.positions_per_output_token_beam4": _per(
            count_sum("network.decode_logits", ("bulk_b",)), decode["beam_tokens"]),
        "attention.positional_encoding.calls_per_record": _per(len(sel("attention.positional_encoding")), decoded),
        "attention.positional_encoding.ms_per_record": _per(t.total(sel("attention.positional_encoding")), decoded) * 1e3,
        "decoding.greedy_decode.self_ms_per_record": self_per("decoding.greedy_decode", decode["greedy_records"]),
        "decoding.beam_decode.self_ms_per_record": self_per("decoding.beam_decode", decode["beam_records"]),
        "checkpoint.load_checkpoint.ms": mean("checkpoint.load_checkpoint"),
        "cli.main.self_ms_per_request": self_per("cli.main", requests, ("request",)),
        "runconfig.load_run_config.us_per_call": mean("runconfig.load_run_config", scale=1e6),
        "dataset.load_dataset.us_per_record": _per(t.total(sel("dataset.load_dataset")), count_sum("dataset.load_dataset")) * 1e6,
        "external.FilePredictions.us_per_record": _per(
            t.total(sel("external.FilePredictions")) + t.total(sel("external.external_predict")),
            count_sum("external.external_predict")) * 1e6,
        "metrics.evaluate_corpus.self_us_per_record": self_per("metrics.evaluate_corpus", scored, scale=1e6),
        "metrics.sentence_bleu.us_per_call": mean("metrics.sentence_bleu", scale=1e6),
        "metrics.corpus_bleu.ms_per_call": mean("metrics.corpus_bleu"),
        "equation.parse_equation.us_per_call": mean("equation.parse_equation", scale=1e6),
        "equation.parse_equation.calls_per_record": _per(
            sum(t.has_ancestor(i, "metrics.evaluate_corpus") for i in parses), scored),
        "equation.solve.us_per_call": mean("equation.solve", scale=1e6),
        "preprocess.tokenize.us_per_call": mean("preprocess.tokenize", scale=1e6),
        "synth.generate_synthetic.ms_per_1k_records": _per(
            t.total(sel("synth.generate_synthetic", ("gen.datagen",))), generated / 1e3) * 1e3,
        "dataset.split_dataset.ms": mean("dataset.split_dataset", ("gen.split",)),
        "preprocess.build_vocab.ms": mean("preprocess.build_vocab", ("gen.vocab",)),
        "trace.layer_self_share": _per(layer_self, timed_wall),
        "trace.bulk_a_items_per_s": throughput(runner, "bulk_a"),
        "trace.bulk_b_items_per_s": throughput(runner, "bulk_b"),
        "trace.request_ms_p50": statistics.median(runner.seconds["request"]) * 1e3 if requests else 0.0,
    }

"""Self-test of the benchmark at toy size.

    python3 bench/selftest.py

Runs each workload once, traced, on inputs shrunk tenfold and a small
model, checks the span recorder on a known call tree, and then hands every
check a corrupted result and requires it to fail. Exits 0 when all of that
holds. Takes about ten seconds, the toy fixture's training included.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import fixture  # noqa: E402
import run  # noqa: E402
from layers import METRICS  # noqa: E402
from spans import Recorder, SpanTable  # noqa: E402
from workloads import WORKLOADS, file_digest, own_loss  # noqa: E402

TOY_MODEL = {"d_model": 32, "n_heads": 2, "d_ff": 64, "n_encoder_layers": 1, "n_decoder_layers": 1}
TOY_RECIPE = {**fixture.RECIPE, "records": 300, "epochs": 30, "model": TOY_MODEL}
SCALE = 0.1

results: list[tuple[str, bool]] = []


def expect(label: str, ok: bool) -> None:
    results.append((label, ok))
    print(f"[{'ok' if ok else 'FAIL'}] {label}", flush=True)


def expect_failure(label: str, action) -> None:
    """``action`` runs a check on a corrupted result; it must raise."""
    try:
        action()
    except AssertionError:
        expect(f"check catches {label}", True)
    else:
        expect(f"check catches {label}", False)


class patched:
    """Temporarily replace an attribute, e.g. a program function."""

    def __init__(self, module, attr, value):
        self.module, self.attr, self.value = module, attr, value

    def __enter__(self):
        self.saved = getattr(self.module, self.attr)
        setattr(self.module, self.attr, self.value)

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.saved)


class edited:
    """Temporarily rewrite a file through ``change(text) -> text``."""

    def __init__(self, path: Path, change):
        self.path, self.change = path, change

    def __enter__(self):
        self.saved = self.path.read_bytes()
        self.path.write_text(self.change(self.saved.decode("utf-8")), encoding="utf-8")

    def __exit__(self, *exc):
        self.path.write_bytes(self.saved)


def edit_report(path: Path, change):
    def rewrite(text: str) -> str:
        report = json.loads(text)
        change(report)
        return json.dumps(report)

    return edited(path, rewrite)


def test_recorder() -> None:
    recorder = Recorder()

    def leaf(x):
        time.sleep(0.002)
        return [x]

    def middle(x):
        time.sleep(0.001)
        return traced_leaf(x) + traced_leaf(x)

    traced_leaf = recorder.wrap("leaf", leaf, count=lambda a, k, r: len(r))
    traced_middle = recorder.wrap("middle", middle)
    with recorder.op("request"):
        traced_middle(1)
    table = SpanTable(recorder.spans)
    names = [s[0] for s in recorder.spans]
    expect("recorder keeps spans in call order", names == ["op:request", "middle", "leaf", "leaf"])
    expect("recorder links parents", [s[3] for s in recorder.spans] == [-1, 0, 1, 1])
    expect("recorder takes counts at the boundary", table.counts(table.select("leaf", ["request"])) == [1, 1])
    duration = [end - start for _, start, end, _, _ in recorder.spans]
    expect("self times add up to the root span", abs(sum(table.self_time) - duration[0]) < 1e-9)
    expect("a self time excludes the children", abs(table.self_time[1] - (duration[1] - duration[2] - duration[3])) < 1e-12)
    expect("a leaf's self time is its duration", table.self_time[2:] == duration[2:])


def run_workload(name: str, toy_fixture: Path):
    run_dir = run.WORK / f"selftest-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[name](run_dir, 7, toy_fixture, scale=SCALE, model=TOY_MODEL)
    workload.accuracy_floor = 0.0  # a toy model is not held to the reference floor
    result = run.measure(workload, seconds=0, trace=True)
    expect(f"{name}: checks pass on the program's own outputs", result["correct"] and result["failed"] == 0)
    expect(f"{name}: every per-layer metric reported", set(result["metrics"]) == set(METRICS))
    share = result["metrics"]["trace.layer_self_share"]["value"]
    expect(f"{name}: span self times cover the timed wall time ({share:.3f})", 0.9 < share <= 1.0)
    return workload


def corrupt_score(w) -> None:
    report = w.dir / "jsonl.json"

    def flip_verdict(r):
        row = next(x for x in r["per_record"] if x["verdict"] == "correct")
        row["verdict"] = "wrong"

    for label, change in (
        ("a flipped verdict", flip_verdict),
        ("a wrong solved value", lambda r: r["per_record"][0].update(solved_value="12345")),
        ("a changed corpus BLEU", lambda r: r.update(corpus_bleu=r["corpus_bleu"] + 0.01)),
        ("a changed sentence BLEU", lambda r: r["per_record"][1].update(bleu=r["per_record"][1]["bleu"] + 1e-6)),
    ):
        with edit_report(report, change):
            expect_failure(f"score: {label}", w.check)
    saved = dict(w.expected)
    w.expected["wrong"] += 1
    w.expected["correct"] -= 1
    expect_failure("score: verdict counts that differ from the built ones", w.check)
    w.expected = saved
    i, out = w.solved[0]
    w.solved[0] = (i, "0\n")
    expect_failure("score: a wrong solve --equation value", w.check)
    w.solved[0] = (i, out)
    w.digests["tsv"].add("0" * 64)
    expect_failure("score: reports that differ between rounds", w.check)
    w.digests["tsv"].discard("0" * 64)


def corrupt_infer(w) -> None:
    greedy = [row["predicted"] for row in w.reports()["greedy"]["per_record"]]
    wrong = list(greedy)
    wrong[0] = (wrong[0] + " +").strip()
    expect_failure("infer: a greedy token that is not the argmax", lambda: w.check_decoding(wrong))
    decoding = sys.modules["mwp.model.decoding"]
    with patched(decoding, "beam_decode", lambda *a, **k: [3, 3, 3]):
        expect_failure("infer: beam_size=1 differing from greedy", lambda: w.check_decoding(greedy))
    i, out = w.solved[0]
    w.solved[0] = (i, out.replace("value: ", "value: 9"))
    expect_failure("infer: a solve value that does not match its equation", w.check)
    w.solved[0] = (i, "equation: x = 1 + 1\nvalue: 2\n" if greedy[i] != "x = 1 + 1" else "equation: x = 2\nvalue: 2\n")
    expect_failure("infer: a solve equation that differs from eval's", w.check)
    w.solved[0] = (i, out)
    def flip_beam_verdict(r):
        row = r["per_record"][0]
        row["verdict"] = "wrong" if row["verdict"] != "wrong" else "correct"

    with edit_report(w.dir / "beam4.json", flip_beam_verdict):
        expect_failure("infer: a wrong beam-4 verdict", w.check)
    w.accuracy_floor = 1.01
    expect_failure("infer: greedy accuracy under the floor", w.check)
    w.accuracy_floor = 0.0


def corrupt_train(w) -> None:
    history = w.dir / "b8.history"
    with edited(history, lambda t: t.replace("val_loss=", "val_loss=9")):
        expect_failure("train: a history validation loss that does not match the checkpoint", w.check)
    untrained = w.dir / "req.ckpt"
    b8 = w.dir / "b8.ckpt"
    saved_b8, saved_digests = b8.read_bytes(), {k: set(v) for k, v in w.digests.items()}
    shutil.copyfile(untrained, b8)
    w.digests["b8"] = {file_digest(b8)}
    network = sys.modules["mwp.model.network"]
    training = sys.modules["mwp.model.training"]
    ckpt = sys.modules["mwp.model.checkpoint"].load_checkpoint(untrained)
    records = sys.modules["mwp.dataset"].load_dataset(w.dir / "parts" / "validation.jsonl")
    pairs = training.prepare_pairs(records, ckpt.src_vocab, ckpt.tgt_vocab)
    loss = own_loss(network.forward, ckpt.params, ckpt.config, pairs)
    with edited(history, lambda t: f"epoch=1 train_loss=1.0 val_loss={loss:.6f}\n"):
        expect_failure("train: a validation loss that did not fall", w.check)
    b8.write_bytes(saved_b8)
    w.digests = saved_digests

    real_backward = network.backward

    def skewed_backward(*args, **kwargs):
        loss, grads = real_backward(*args, **kwargs)
        return loss, {k: g * 1.01 for k, g in grads.items()}

    with patched(network, "backward", skewed_backward):
        expect_failure("train: gradients 1% off", lambda: w.check_gradient(sys.modules["mwp.model.checkpoint"].load_checkpoint(b8)))
    optim = sys.modules["mwp.model.optim"]
    real_adam = optim.adam_step

    def adam_nudged(params, grads, state, config):
        new_params, new_state = real_adam(params, grads, state, config)
        return {k: p + 1e-9 for k, p in new_params.items()}, new_state

    with patched(optim, "adam_step", adam_nudged):
        expect_failure("train: an Adam update off the textbook formula", w.check_adam)
    w.digests["b8"].add("0" * 64)
    expect_failure("train: checkpoints that differ between rounds", w.check)
    w.digests["b8"].discard("0" * 64)


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(run.SRC))
    test_recorder()
    toy_fixture = fixture.ensure(run.WORK, run.SRC, run.BLAS_THREADS, TOY_RECIPE)
    try:
        for name, corrupt in (("score", corrupt_score), ("infer", corrupt_infer), ("train", corrupt_train)):
            corrupt(run_workload(name, toy_fixture))
    finally:
        for name in WORKLOADS:
            shutil.rmtree(run.WORK / f"selftest-{name}", ignore_errors=True)
    failed = [label for label, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} passed in {time.perf_counter() - start:.0f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

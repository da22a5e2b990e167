"""The three workloads: their inputs, program-side set-up, rounds of timed
``mwp`` commands and the checks on what the commands produced.

Every operation is one ``mwp.cli.main`` call made in this process, the way
a user's ``mwp ...`` command runs, with its standard output captured. A
round runs two bulk commands (``bulk_a``, ``bulk_b``), each followed by a
block of single requests (``request``) sent one at a time from one client,
so the requests sample the host over the whole run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle

BOS, EOS = 1, 2
SCORE_MIX = {"exact": 0.40, "reformatted": 0.15, "commuted": 0.15, "changed": 0.15, "divzero": 0.05, "unparseable": 0.10}
EXPECTED_VERDICT = {
    "exact": oracle.CORRECT, "reformatted": oracle.CORRECT, "commuted": oracle.CORRECT,
    "changed": oracle.WRONG, "divzero": oracle.UNPARSEABLE, "unparseable": oracle.UNPARSEABLE,
}
HELD_OUT_PROFILE = "add=0.2,sub=0.2,mul=0.2,div=0.2,complex=0.2"
GREEDY_ACCURACY_FLOOR = 0.6


class Runner:
    """Runs ``mwp`` commands in-process and keeps the wall time of each."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.items: dict[str, list[int]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, op: str, argv: list[str], items: int = 1) -> str | None:
        """Stdout of the command, or None when it failed. Operations whose
        name has a dot (``gen.*``, ``warmup.*``) are not counted or kept."""
        counted = "." not in op
        cli = sys.modules["mwp.cli"]
        out, err = io.StringIO(), io.StringIO()
        scope = self.recorder.op(op) if self.recorder else contextlib.nullcontext()
        with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback out of main is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if code != 0:
            message = f"{op} {argv[0]} -> {code} {err.getvalue().strip()[-300:]}"
            if not counted:
                raise RuntimeError(message)
            self.attempted += 1
            self.failed += 1
            self.errors.append(message)
            return None
        if counted:
            self.attempted += 1
            self.seconds[op].append(elapsed)
            self.items[op].append(items)
        return out.getvalue()


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def mwp(name: str):
    return importlib.import_module(f"mwp.{name}")


def token_ids(tokens: list[str], lookup: dict[str, int]) -> list[int]:
    return [lookup.get(t, 3) for t in tokens]


def is_argmax(row: np.ndarray, token: int) -> bool:
    """``token`` is the largest logit, ties going to the smaller id; logits
    within float reassociation error of each other count as tied."""
    tol = 1e-9 * max(1.0, float(np.abs(row).max()))
    top = float(row.max())
    first = int(np.flatnonzero(row >= top - tol)[0])
    return bool(row[token] >= top - tol) and (token == first or row[first] - row[token] <= tol)


def own_loss(forward, params, config, pairs) -> float:
    """Token-mean cross entropy from per-record teacher-forced logits."""
    total, count = 0.0, 0
    for src, tgt in pairs:
        logits = forward(params, config, np.array(src), np.array(tgt[:-1]))
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        total -= float(logp[np.arange(len(tgt) - 1), tgt[1:]].sum())
        count += len(tgt) - 1
    return total / count


class Workload:
    name = ""
    requests_per_block = 50

    def __init__(self, run_dir: Path, seed: int, fixture: Path, scale: float = 1.0, model: dict | None = None):
        """``scale`` shrinks every input and ``model`` overrides the model
        shape; both are for the toy-size self-test."""
        self.dir = run_dir
        self.seed = seed
        self.fixture = fixture
        self.scale = scale
        self.model = model or {}
        self.rounds = 0
        self.requests_sent = 0

    def size(self, n: int) -> int:
        return max(8, int(n * self.scale))

    def decode_counts(self) -> dict[str, int]:
        """Records decoded and tokens emitted (EOS included), by decoder."""
        return {"greedy_records": 0, "greedy_tokens": 0, "beam_records": 0, "beam_tokens": 0}


class TrainWorkload(Workload):
    """``mwp train`` at batch 8 and 32 for one epoch, and ``mwp train`` with
    no epochs as the request: load, vocab, init and checkpoint write."""

    name = "train"

    def generate(self, run: Runner) -> None:
        d = self.dir
        run("gen.datagen", ["datagen", "--n", str(self.size(1000)), "--seed", "11", "--out", str(d / "data.jsonl")])
        run("gen.split", ["split", "--in", str(d / "data.jsonl"), "--out", str(d / "parts"), "--seed", "11"])
        self.train_rows = read_jsonl(d / "parts" / "train.jsonl")
        write_jsonl(d / "parts" / "small.jsonl", self.train_rows[:64])
        model = [f"model.{k} = {v}" for k, v in self.model.items()]
        for name, batch, epochs, train_file in (
            ("b8", 8, 1, "train"), ("b32", 32, 1, "train"), ("req", 8, 0, "train"), ("small", 8, 1, "small"),
        ):
            lines = [
                f"data.train = {d / 'parts' / (train_file + '.jsonl')}",
                f"data.validation = {d / 'parts' / 'validation.jsonl'}",
                f"paths.vocab_dir = {d / 'vocab'}",
                f"paths.checkpoint = {d / (name + '.ckpt')}",
                f"paths.history = {d / (name + '.history')}",
                f"seed = {self.seed}",
                f"train.batch_size = {batch}",
                f"train.epochs = {epochs}",
                *model,
            ]
            (d / f"{name}.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        # the first train command builds the vocabularies, as a user's would
        run("gen.vocab", ["train", "--config", str(d / "req.cfg")])
        self.untrained_digest = file_digest(d / "req.ckpt")
        self.digests: dict[str, set[str]] = defaultdict(set)

    def load(self) -> None:
        d = self.dir
        mwp("runconfig").load_run_config(d / "b8.cfg")
        for part in ("train", "validation"):
            mwp("dataset").load_dataset(d / "parts" / f"{part}.jsonl")
        for side in ("src", "tgt"):
            mwp("preprocess").Vocab.load(d / "vocab" / f"{side}_vocab.txt")

    def warmup(self, run: Runner) -> None:
        run("warmup.request", ["train", "--config", str(self.dir / "req.cfg")])
        run("warmup.bulk", ["train", "--config", str(self.dir / "small.cfg")])

    def round(self, run: Runner) -> None:
        d, n = self.dir, len(self.train_rows)
        for op, name in (("bulk_a", "b8"), ("bulk_b", "b32")):
            run(op, ["train", "--config", str(d / f"{name}.cfg")], items=n)
            for _ in range(self.requests_per_block):
                run("request", ["train", "--config", str(d / "req.cfg")])
        self.rounds += 1
        for name in ("b8", "b32", "req"):
            self.digests[name].add(file_digest(d / f"{name}.ckpt"))

    def check(self) -> None:
        d = self.dir
        training, network = mwp("model.training"), mwp("model.network")
        load_checkpoint = mwp("model.checkpoint").load_checkpoint
        assert all(len(v) == 1 for v in self.digests.values()), "checkpoints differ between rounds"
        assert self.digests["req"] == {self.untrained_digest}, "zero-epoch checkpoints differ between calls"

        untrained = load_checkpoint(d / "req.ckpt")
        records = mwp("dataset").load_dataset(d / "parts" / "validation.jsonl")
        val_pairs = training.prepare_pairs(records, untrained.src_vocab, untrained.tgt_vocab)
        untrained_loss = own_loss(network.forward, untrained.params, untrained.config, val_pairs)
        for name in ("b8", "b32"):
            lines = (d / f"{name}.history").read_text(encoding="utf-8").split()
            fields = dict(item.split("=") for item in lines)
            assert fields.get("epoch") == "1" and len(fields) == 3, f"{name}: history is not one epoch: {lines}"
            reported = float(fields["val_loss"])
            ckpt = load_checkpoint(d / f"{name}.ckpt")
            recomputed = own_loss(network.forward, ckpt.params, ckpt.config, val_pairs)
            assert abs(recomputed - reported) <= 1e-5 * max(1.0, recomputed), (
                f"{name}: validation loss {reported} in history, {recomputed} recomputed")
            assert recomputed < untrained_loss, f"{name}: validation loss {recomputed} not below untrained {untrained_loss}"
        self.check_gradient(load_checkpoint(d / "b8.ckpt"))
        self.check_adam()

    def check_gradient(self, ckpt) -> None:
        """Central finite differences of the loss against ``backward`` on a
        few coordinates of one batch of eight. A step that straddles a ReLU
        kink gives a wrong difference, so a coordinate passes when any of
        three step sizes agrees."""
        network = mwp("model.network")
        records = mwp("dataset").load_dataset(self.dir / "parts" / "train.jsonl")[:8]
        pairs = mwp("model.training").prepare_pairs(records, ckpt.src_vocab, ckpt.tgt_vocab)
        width_s = max(len(s) for s, _ in pairs)
        width_t = max(len(t) for _, t in pairs) - 1
        src = np.zeros((len(pairs), width_s), dtype=np.int64)
        tgt_in = np.zeros((len(pairs), width_t), dtype=np.int64)
        tgt_out = np.zeros((len(pairs), width_t), dtype=np.int64)
        for row, (s, t) in enumerate(pairs):
            src[row, : len(s)], tgt_in[row, : len(t) - 1], tgt_out[row, : len(t) - 1] = s, t[:-1], t[1:]
        mask = tgt_out != 0

        def loss_of(params) -> float:
            logits = network.forward(params, ckpt.config, src, tgt_in)
            shifted = logits - logits.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            picked = np.take_along_axis(logp, tgt_out[..., None], axis=-1)[..., 0]
            return float(-(picked * mask).sum() / mask.sum())

        params = {k: v.copy() for k, v in ckpt.params.items()}
        loss, grads = network.backward(params, ckpt.config, src, tgt_in, tgt_out)
        assert oracle.close(loss, loss_of(params), 1e-9), "backward loss differs from the forward loss"
        rng = np.random.default_rng(self.seed)
        keys = sorted(params)
        for key in rng.choice(keys, size=6, replace=False):
            flat, grad = params[key].reshape(-1), grads[key].reshape(-1)
            sample = rng.choice(flat.size, size=min(64, flat.size), replace=False)
            i = int(sample[np.argmax(np.abs(grad[sample]))])
            saved = flat[i]
            differences = []
            for eps in (1e-6, 1e-5, 1e-7):
                flat[i] = saved + eps
                up = loss_of(params)
                flat[i] = saved - eps
                down = loss_of(params)
                flat[i] = saved
                differences.append((up - down) / (2 * eps))
            assert any(abs(fd - grad[i]) <= 1e-4 * max(abs(fd), abs(grad[i])) + 1e-8 for fd in differences), (
                f"gradient of {key}[{i}]: backward {grad[i]:.6e}, finite differences {differences}")

    def check_adam(self) -> None:
        """One ``adam_step`` against the textbook update."""
        optim, config = mwp("model.optim"), mwp("model.config")
        rng = np.random.default_rng(self.seed + 1)
        shapes = {"w": (5, 3), "b": (3,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        m = {k: rng.normal(size=s) for k, s in shapes.items()}
        v = {k: rng.random(size=s) for k, s in shapes.items()}
        lr, b1, b2, eps, t = 1e-3, 0.9, 0.999, 1e-8, 3
        expected = {}
        for k in shapes:
            m1 = b1 * m[k] + (1 - b1) * grads[k]
            v1 = b2 * v[k] + (1 - b2) * grads[k] ** 2
            step = lr * (m1 / (1 - b1 ** (t + 1))) / (np.sqrt(v1 / (1 - b2 ** (t + 1))) + eps)
            expected[k] = (params[k] - step, m1, v1)
        cfg = config.TrainConfig(learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
        state = optim.AdamState(m={k: a.copy() for k, a in m.items()}, v={k: a.copy() for k, a in v.items()}, t=t)
        new_params, new_state = optim.adam_step({k: a.copy() for k, a in params.items()}, grads, state, cfg)
        assert new_state.t == t + 1, "adam_step did not advance the step count"
        for k, (p1, m1, v1) in expected.items():
            for got, want, what in ((new_params[k], p1, "params"), (new_state.m[k], m1, "m"), (new_state.v[k], v1, "v")):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-15), f"adam_step {what}[{k}] differs from the textbook update"


class InferWorkload(Workload):
    """``mwp eval`` greedy and beam-4 over a held-out set, and ``mwp solve``
    one problem at a time, all with the fixture checkpoint."""

    name = "infer"
    accuracy_floor = GREEDY_ACCURACY_FLOOR

    def generate(self, run: Runner) -> None:
        d = self.dir
        self.cfg = str(self.fixture / "run.cfg")
        self.held = d / "held_out.jsonl"
        run("gen.datagen", ["datagen", "--n", str(self.size(300)), "--seed", str(100_000 + self.seed),
                            "--profile", HELD_OUT_PROFILE, "--out", str(self.held)])
        self.rows = read_jsonl(self.held)
        self.digests: dict[str, set[str]] = defaultdict(set)
        self.solved: list[tuple[int, str]] = []

    def load(self) -> None:
        mwp("runconfig").load_run_config(self.cfg)
        mwp("dataset").load_dataset(self.held)
        mwp("model.checkpoint").load_checkpoint(self.fixture / "model.ckpt")

    def eval_argv(self, beam: int, out: Path, data: Path | None = None) -> list[str]:
        return ["eval", "--config", self.cfg, "--in", str(data or self.held), "--beam", str(beam), "--out", str(out)]

    def warmup(self, run: Runner) -> None:
        """A full greedy pass; its predictions pick the requests, since
        ``mwp solve`` exits 3 by design on a problem whose decoded equation
        does not parse or solve."""
        run("warmup.bulk", self.eval_argv(0, self.dir / "warmup.json"))
        report = json.loads((self.dir / "warmup.json").read_text(encoding="utf-8"))
        by_class = defaultdict(list)
        for i, row in enumerate(report["per_record"]):
            if oracle.evaluate(row["predicted"]) is not None:
                by_class[equation_class(self.rows[i]["equation"])].append(i)
        assert by_class, "no decoded equation solves"
        # every block of len(by_class) requests holds one problem of each class
        longest = max(len(v) for v in by_class.values())
        self.pool = [by_class[c][j % len(by_class[c])] for j in range(longest) for c in sorted(by_class)]
        for i in self.pool[:2]:
            run("warmup.request", ["solve", "--config", self.cfg, self.rows[i]["problem"]])

    def round(self, run: Runner) -> None:
        d, n = self.dir, len(self.rows)
        for op, beam, name in (("bulk_a", 0, "greedy"), ("bulk_b", 4, "beam4")):
            run(op, self.eval_argv(beam, d / f"{name}.json"), items=n)
            for _ in range(self.requests_per_block):
                i = self.pool[self.requests_sent % len(self.pool)]
                self.requests_sent += 1
                out = run("request", ["solve", "--config", self.cfg, self.rows[i]["problem"]])
                if out is not None:
                    self.solved.append((i, out))
        self.rounds += 1
        for name in ("greedy", "beam4"):
            self.digests[name].add(file_digest(d / f"{name}.json"))

    def reports(self) -> dict[str, dict]:
        return {n: json.loads((self.dir / f"{n}.json").read_text(encoding="utf-8")) for n in ("greedy", "beam4")}

    def decode_counts(self) -> dict[str, int]:
        reports = self.reports()
        per_round = {n: sum(len(r["predicted"].split()) + 1 for r in rep["per_record"]) for n, rep in reports.items()}
        greedy = reports["greedy"]["per_record"]
        request_tokens = sum(len(greedy[i]["predicted"].split()) + 1 for i, _ in self.solved)
        return {
            "greedy_records": self.rounds * len(self.rows) + len(self.solved),
            "greedy_tokens": self.rounds * per_round["greedy"] + request_tokens,
            "beam_records": self.rounds * len(self.rows),
            "beam_tokens": self.rounds * per_round["beam4"],
        }

    def check(self) -> None:
        assert all(len(v) == 1 for v in self.digests.values()), "reports differ between rounds"
        reports = self.reports()
        golds = [r["equation"] for r in self.rows]
        ids = [r["id"] for r in self.rows]
        for name, report in reports.items():
            predictions = [row["predicted"] for row in report["per_record"]]
            counts = oracle.check_report(report, predictions, golds, ids)
            if name == "greedy":
                accuracy = counts[oracle.CORRECT] / len(self.rows)
                assert accuracy >= self.accuracy_floor, f"greedy accuracy {accuracy:.3f} below {self.accuracy_floor}"
        greedy = [row["predicted"] for row in reports["greedy"]["per_record"]]
        for i, out in self.solved:
            lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
            assert lines["equation"] == greedy[i], f"solve of record {ids[i]} printed {lines['equation']!r}, eval {greedy[i]!r}"
            assert lines["value"] == oracle.value_text(oracle.evaluate(lines["equation"])), (
                f"solve of record {ids[i]} printed value {lines['value']}")
        self.check_decoding(greedy)

    def check_decoding(self, greedy: list[str]) -> None:
        """Every greedy token is the argmax of a teacher-forced forward over
        its prefix, and beam search of width one reproduces greedy."""
        ckpt = mwp("model.checkpoint").load_checkpoint(self.fixture / "model.ckpt")
        forward = mwp("model.network").forward
        beam_decode = mwp("model.decoding").beam_decode
        src_vocab = {t: i for i, t in enumerate(ckpt.src_vocab.id_to_token)}
        tgt_vocab = {t: i for i, t in enumerate(ckpt.tgt_vocab.id_to_token)}
        limit = ckpt.config.max_len - 1
        rng = random.Random(self.seed)
        beam_sample = set(rng.sample(range(len(self.rows)), min(10, len(self.rows))))
        for i, (row, predicted) in enumerate(zip(self.rows, greedy)):
            src = token_ids(oracle.tokens(row["problem"]), src_vocab)
            out = token_ids(predicted.split(), tgt_vocab)
            logits = forward(ckpt.params, ckpt.config, np.array(src), np.array([BOS] + out[:limit - 1]))
            targets = out + [EOS] if len(out) < limit else out
            for t, token in enumerate(targets[: len(logits)]):
                assert is_argmax(logits[t], token), f"record {row['id']}: greedy token {t} is not the argmax"
            if i in beam_sample:
                beam = beam_decode(ckpt.params, ckpt.config, src, beam_size=1)
                assert beam == out, f"record {row['id']}: beam_size=1 gives {beam}, greedy {out}"


class ScoreWorkload(Workload):
    """``mwp eval --predictions`` over a PatiGonit-sized set, once as JSONL
    and once as two-column TSV, and ``mwp solve --equation`` requests."""

    name = "score"
    requests_per_block = 200

    def generate(self, run: Runner) -> None:
        d = self.dir
        run("gen.datagen", ["datagen", "--n", str(self.size(10_000)), "--seed", str(self.seed),
                            "--out", str(d / "data.jsonl")])
        self.rows = read_jsonl(d / "data.jsonl")
        self.predictions, self.expected = build_predictions(self.rows, random.Random(self.seed))
        write_jsonl(d / "predictions.jsonl", ({"id": r["id"], "equation": p} for r, p in zip(self.rows, self.predictions)))
        (d / "data.tsv").write_text("".join(f"{r['problem']}\t{r['equation']}\n" for r in self.rows), encoding="utf-8")
        write_jsonl(d / "predictions_tsv.jsonl", ({"id": str(i), "equation": p} for i, p in enumerate(self.predictions, 1)))
        self.digests: dict[str, set[str]] = defaultdict(set)
        self.solved: list[tuple[int, str]] = []

    def load(self) -> None:
        d = self.dir
        mwp("dataset").load_dataset(d / "data.jsonl")
        mwp("dataset").load_dataset(d / "data.tsv", format="tsv")
        mwp("model.external").FilePredictions(d / "predictions.jsonl")
        mwp("model.external").FilePredictions(d / "predictions_tsv.jsonl")

    def eval_argv(self, data: str, predictions: str, out: str) -> list[str]:
        d = self.dir
        return ["eval", "--in", str(d / data), "--predictions", str(d / predictions), "--out", str(d / out)]

    def warmup(self, run: Runner) -> None:
        write_jsonl(self.dir / "small.jsonl", self.rows[:500])
        run("warmup.bulk", self.eval_argv("small.jsonl", "predictions.jsonl", "warmup.json"))
        for row in self.rows[:5]:
            run("warmup.request", ["solve", "--equation", row["equation"]])

    def round(self, run: Runner) -> None:
        n = len(self.rows)
        for op, data, predictions, out_name in (
            ("bulk_a", "data.jsonl", "predictions.jsonl", "jsonl.json"),
            ("bulk_b", "data.tsv", "predictions_tsv.jsonl", "tsv.json"),
        ):
            run(op, self.eval_argv(data, predictions, out_name), items=n)
            for _ in range(self.requests_per_block):
                i = self.requests_sent % n
                self.requests_sent += 1
                out = run("request", ["solve", "--equation", self.rows[i]["equation"]])
                if out is not None:
                    self.solved.append((i, out))
        self.rounds += 1
        for name in ("jsonl", "tsv"):
            self.digests[name].add(file_digest(self.dir / f"{name}.json"))

    def check(self) -> None:
        assert all(len(v) == 1 for v in self.digests.values()), "reports differ between rounds"
        golds = [r["equation"] for r in self.rows]
        for name, ids in (("jsonl", [r["id"] for r in self.rows]), ("tsv", [str(i) for i in range(1, len(self.rows) + 1)])):
            report = json.loads((self.dir / f"{name}.json").read_text(encoding="utf-8"))
            counts = oracle.check_report(report, self.predictions, golds, ids)
            assert counts == self.expected, f"{name}: verdict counts {counts}, built {self.expected}"
        for i, out in self.solved:
            want = oracle.value_text(oracle.evaluate(self.rows[i]["equation"]))
            assert out.strip() == want, f"solve --equation of record {self.rows[i]['id']} printed {out.strip()!r}, want {want}"


def build_predictions(rows: list[dict], rng: random.Random) -> tuple[list[str], dict[str, int]]:
    """One prediction per record from its gold equation by a known edit;
    returns the predictions and the verdict counts they must get."""
    n = len(rows)
    quota = {kind: int(share * n) for kind, share in SCORE_MIX.items()}
    quota["exact"] += n - sum(quota.values())
    trees = [oracle.parse(r["equation"]) for r in rows]
    order = list(range(n))
    rng.shuffle(order)
    commutable = [i for i in order if any(op in ("+", "*") for op in _ops(trees[i][1]))][: quota["commuted"]]
    assert len(commutable) == quota["commuted"], "too few commutable equations"
    kinds = dict.fromkeys(commutable, "commuted")
    rest = iter([i for i in order if i not in kinds])
    for kind in ("reformatted", "changed", "divzero", "unparseable", "exact"):
        for _ in range(quota[kind]):
            kinds[next(rest)] = kind
    predictions = [_edit(kinds[i], rows[i]["equation"], trees[i], rng) for i in range(n)]
    expected = {oracle.CORRECT: 0, oracle.WRONG: 0, oracle.UNPARSEABLE: 0}
    for kind, count in quota.items():
        expected[EXPECTED_VERDICT[kind]] += count
    return predictions, expected


def equation_class(text: str) -> str:
    """The operator of a one-operator equation, else "complex"."""
    ops = _ops(oracle.parse(text)[1])
    return ops[0] if len(ops) == 1 else "complex"


def _ops(tree: tuple) -> list[str]:
    return [] if tree[0] == "num" else [tree[0], *_ops(tree[1]), *_ops(tree[2])]


def _numbers(tree: tuple) -> list[Fraction]:
    return [tree[1]] if tree[0] == "num" else _numbers(tree[1]) + _numbers(tree[2])


def _commute(tree: tuple) -> tuple:
    """Swap the operands of the first + or * in pre-order."""
    if tree[0] == "num":
        return tree
    if tree[0] in ("+", "*"):
        return (tree[0], tree[2], tree[1])
    left = _commute(tree[1])
    return (tree[0], left, tree[2] if left != tree[1] else _commute(tree[2]))


def _bump(tree: tuple, which: int, counter: list[int]) -> tuple:
    """Add one to the ``which``-th number of the tree."""
    if tree[0] == "num":
        counter[0] += 1
        return ("num", tree[1] + 1) if counter[0] - 1 == which else tree
    return (tree[0], _bump(tree[1], which, counter), _bump(tree[2], which, counter))


def _edit(kind: str, gold: str, parsed: tuple, rng: random.Random) -> str:
    variable, tree = parsed
    numbers = [oracle.number_text(v) for v in _numbers(tree)]
    rhs = gold.partition("=")[2].strip()
    if kind == "exact":
        return gold
    if kind == "reformatted":
        style = rng.randrange(4)
        if style == 0:
            return gold.translate(str.maketrans("0123456789", "০১২৩৪৫৬৭৮৯"))
        if style == 1:
            return gold.replace(" ", "")
        if style == 2:
            return "  " + gold.replace(" ", "   ") + " "
        return "X=" + rhs.replace(" ", "").translate(str.maketrans("0123456789", "০১২৩৪৫৬৭৮৯"))
    if kind == "commuted":
        return oracle.render(variable, _commute(tree))
    if kind == "changed":
        value = oracle.value_of(tree)
        for which in range(len(numbers)):
            changed = _bump(tree, which, [0])
            if oracle.value_of(changed) != value:
                return oracle.render(variable, changed)
        raise AssertionError(f"no single-number change alters {gold!r}")
    if kind == "divzero":
        if rng.randrange(2):
            return f"x = ( {rhs} ) / 0"
        return f"x = {numbers[0]} / ( {numbers[-1]} - {numbers[-1]} )"
    return rng.choice([
        f"x = {rhs} +", f"x = ( {rhs}", rhs, f"x = {numbers[0]} {numbers[-1]}", "উত্তর জানা নেই", f"x = {rhs} ?",
    ])


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload, ScoreWorkload)}

"""Command-line pipeline: mwp datagen|split|train|eval|solve|grid.

Exit codes: 0 success, 2 configuration errors (bad flags or config files,
including an empty path flag, a ``--predictor-cmd`` that names no command or
does not split into words, an odd ``model.d_model``, a ``model.max_len``
above its bound, and a ``train.*`` value ``TrainConfig`` rejects, such as a
NaN learning rate; ``train`` and ``grid`` find a bad ``train.*`` value
before they read any data), 3 data errors
(missing or malformed datasets, vocab or id mismatches, unparseable input
equations, and for ``grid`` a bad train, validation or test record, found
before any training), 4 runtime errors (division by zero, an external
predictor that cannot start or exits non-zero, standard output closed by its
reader, a grid cell whose training or scoring failed). Identical inputs and
seed produce byte-identical output artifacts.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shlex
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dataset as ds
from . import synth
from .atomic import atomic_file, write_text_atomic
from .equation import DivisionByZero, ParseError, format_number, parse_equation, solve
from .metrics import evaluate_corpus, format_results_table
from .model.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .model.config import ModelConfig, TrainConfig
from .model.decoding import beam_decode_batch
from .model.external import FilePredictions, SubprocessPredictor, external_predict
from .model.network import init_parameters
from .model.training import prepare_pairs, source_ids, target_tokens, train
from .preprocess import Vocab, build_vocab, decode, tokenize
from .runconfig import ConfigError, RunConfig, as_tolerance, checked_beam, load_run_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _format_value(value: Fraction) -> str:
    sign = "-" if value < 0 else ""
    try:
        return sign + format_number(abs(value))
    except ValueError:
        return str(value)


def _load_records(path: str | Path) -> list[ds.MwpRecord]:
    """Records of a dataset file: TSV when its name ends in ``.tsv``, JSONL otherwise."""
    file = Path(path)
    if not file.is_file():
        raise ds.DatasetError(f"dataset file not found: {file}")
    return ds.load_dataset(file, format="tsv" if str(file).endswith(".tsv") else "jsonl")


def _check_max_len(records, lengths, max_len: int) -> None:
    """Raise a data error naming the records whose length exceeds ``max_len``."""
    too_long = [rec.id for rec, n in zip(records, lengths) if n > max_len]
    if too_long:
        raise ds.DatasetError(f"{len(too_long)} record(s) exceed max_len={max_len}: {too_long[:5]}")


def _checked_pairs(records, src_vocab, tgt_vocab, max_len):
    pairs = prepare_pairs(records, src_vocab, tgt_vocab)
    _check_max_len(records, (max(len(s), len(t) - 1) for s, t in pairs), max_len)
    return pairs


class TrainingInputs(NamedTuple):
    model_config: ModelConfig
    src_vocab: Vocab
    tgt_vocab: Vocab
    pairs: list
    val_pairs: list | None


def _training_inputs(cfg: RunConfig) -> TrainingInputs:
    """What a run of ``cfg`` trains on: the vocabularies (built from the train records when
    missing), the ``ModelConfig`` and the checked train and validation pairs (the latter when
    that file exists). Newly built vocabularies are written only once all of these pass, so a
    failed load leaves no vocabulary behind."""
    train_records = _load_records(cfg.train_path)
    val_records = _load_records(cfg.validation_path) if Path(cfg.validation_path).is_file() else None
    src_path, tgt_path = Path(cfg.vocab_dir) / "src_vocab.txt", Path(cfg.vocab_dir) / "tgt_vocab.txt"
    built = not (src_path.is_file() and tgt_path.is_file())
    if built:
        src_vocab = build_vocab(tokenize(r.problem_text) for r in train_records)
        tgt_vocab = build_vocab(target_tokens(r) for r in train_records)
    else:
        src_vocab, tgt_vocab = Vocab.load(src_path), Vocab.load(tgt_path)
    model_config = cfg.model_config(len(src_vocab), len(tgt_vocab))
    pairs = _checked_pairs(train_records, src_vocab, tgt_vocab, model_config.max_len)
    val_pairs = _checked_pairs(val_records, src_vocab, tgt_vocab, model_config.max_len) if val_records else None
    if not pairs:
        raise ds.DatasetError(f"no training records in {cfg.train_path}")
    if built:
        src_vocab.save(src_path)
        tgt_vocab.save(tgt_path)
    return TrainingInputs(model_config, src_vocab, tgt_vocab, pairs, val_pairs)


def _train_once(inputs: TrainingInputs, train_config: TrainConfig, callback=None):
    params = init_parameters(inputs.model_config, np.random.default_rng(train_config.seed))
    # train stops a diverging run with one RuntimeError (exit 4), so numpy's
    # overflow and invalid-value warnings on the way there are not printed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return train(params, inputs.model_config, train_config, inputs.pairs, inputs.val_pairs, callback=callback)


def _predict_with_checkpoint(ckpt: Checkpoint, records, beam: int) -> list[str]:
    sources = [source_ids(rec, ckpt.src_vocab) for rec in records]
    _check_max_len(records, map(len, sources), ckpt.config.max_len)
    # decoding stops at non-finite logits with one ValueError (exit 3), so numpy's
    # overflow warnings from huge but finite weights on the way there are not printed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        decoded = beam_decode_batch(ckpt.params, ckpt.config, sources, beam_size=max(beam, 1))
    return [" ".join(decode(ids, ckpt.tgt_vocab)) for ids in decoded]


def _load_checkpoint_file(path: str | Path) -> Checkpoint:
    file = Path(path)
    if not file.is_file():
        raise ds.DatasetError(f"checkpoint not found: {file}")
    return load_checkpoint(file)  # a malformed file raises ValueError, a data error in main


def _predictor_argv(command: str) -> list[str]:
    """The words of ``--predictor-cmd``; a command that does not split into
    at least one word is a config error."""
    try:
        argv = shlex.split(command)
    except ValueError as exc:  # unbalanced quotes or a trailing escape
        raise ConfigError(f"--predictor-cmd {command!r}: {exc}") from exc
    if not argv:
        raise ConfigError("--predictor-cmd names no command")
    return argv


def _external_predictions(args, predictor_argv: list[str] | None, records) -> tuple[list[str], str]:
    """Predictions from ``--predictions`` or the ``--predictor-cmd`` words
    ``predictor_argv``, and their source. The predictor, which may hold a
    whole file of predictions, is freed on return, before the records are
    scored."""
    if predictor_argv is None:
        pred_file = Path(args.predictions)
        if not pred_file.is_file():
            raise ds.DatasetError(f"predictions file not found: {pred_file}")
        predictor, source = FilePredictions(pred_file), f"predictions file {pred_file}"
    else:
        predictor = SubprocessPredictor(predictor_argv)
        source = f"predictor command {args.predictor_cmd!r}"
    return external_predict([(r.id, r.problem_text) for r in records], predictor), source


def _reject_empty_paths(**flags: str | None) -> None:
    """An empty path flag is a config error: it names no file, and falling
    back to the config's path would act on a file nobody asked for."""
    for name, value in flags.items():
        if value == "":
            raise ConfigError(f"--{name} needs a path, got an empty value")


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _flat_rows(rows) -> bool:
    """Whether ``rows`` is a non-empty list of non-empty dicts of string keys and scalar values."""
    return (isinstance(rows, list) and len(rows) > 0 and all(type(row) is dict and row for row in rows)
            and {str}.issuperset(map(type, chain.from_iterable(rows)))
            and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, rows)))))


def _write_json(path: str | Path, payload: dict) -> None:
    r"""Write ``json.dumps(payload, indent=2, ensure_ascii=False)`` and a newline, atomically.

    With ``indent`` set, ``json`` runs its pure-Python encoder. A report's
    ``per_record`` rows, when flat, go through the C encoder in one call
    instead, with the key separator that ``indent=2`` puts inside a row. The
    C encoder escapes every newline inside a string, so the only
    ``},\n      {`` in its output is a row boundary, and rewriting those and
    the two ends gives the same bytes."""
    rows = payload.get("per_record")
    if not _flat_rows(rows):
        write_text_atomic(path, json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
        return
    head, tail = json.dumps({**payload, "per_record": []}, indent=2, ensure_ascii=False).split(
        '\n  "per_record": []')
    body = json.dumps(rows, ensure_ascii=False, separators=(",\n      ", ": "))
    body = body.replace("},\n      {", "\n    },\n    {\n      ").encode("utf-8")
    with atomic_file(path) as fh:
        fh.write(f'{head}\n  "per_record": [\n    {{\n      '.encode("utf-8"))
        fh.write(memoryview(body)[2:-2])  # without the C encoder's "[{" and "}]"
        fh.write(f"\n    }}\n  ]{tail}\n".encode("utf-8"))


# --- commands ---------------------------------------------------------------


def cmd_datagen(args) -> int:
    _reject_empty_paths(out=args.out)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    profile = synth.DEFAULT_PROFILE
    if args.profile:
        profile = []
        for item in args.profile.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--profile entries must look like add=0.2, got {item!r}")
            profile.append((key.strip(), value.strip()))
    try:
        records = synth.generate_synthetic(args.n, args.seed, profile, allow_fractions=args.allow_fractions)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    ds.save_dataset(records, out)
    counts = ds.summarize(records)
    print(f"wrote {len(records)} records to {out}")
    for name, count in counts.items():
        print(f"  {name}: {count}")
    return EXIT_OK


def cmd_split(args) -> int:
    _reject_empty_paths(**{"in": args.in_path, "out": args.out_dir})
    try:
        ds.split_fractions(args.ratios)  # a bad ratio is a config error, found before the data is read
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    records = _load_records(args.in_path)
    parts = ds.split_dataset(records, args.seed, args.ratios)
    out_dir = Path(args.out_dir)
    for name, part in zip(("train", "validation", "test"), parts):
        ds.save_dataset(part, out_dir / f"{name}.jsonl")
        print(f"{name}: {len(part)} records -> {out_dir / f'{name}.jsonl'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    train_config = cfg.train_config()  # a bad setting is a config error, found before the data is read
    inputs = _training_inputs(cfg)

    lines: list[str] = []

    def on_epoch(stats, params) -> None:
        line = f"epoch={stats.epoch} train_loss={stats.train_loss:.6f}"
        if stats.val_loss is not None:
            line += f" val_loss={stats.val_loss:.6f}"
        lines.append(line)
        print(line)

    params = _train_once(inputs, train_config, callback=on_epoch)
    history = Path(cfg.history_path)
    write_text_atomic(history, "".join(line + "\n" for line in lines))

    ckpt_path = Path(cfg.checkpoint_path)
    extra = {key: getattr(train_config, key) for key in ("seed", "batch_size", "epochs", "learning_rate")}
    save_checkpoint(ckpt_path, params, inputs.model_config, inputs.src_vocab, inputs.tgt_vocab, extra=extra)
    print(f"saved checkpoint to {ckpt_path}")
    print(f"history written to {history}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _reject_empty_paths(**{"in": args.in_path, "out": args.out, "checkpoint": args.checkpoint,
                           "predictions": args.predictions})
    if args.predictions is not None and args.predictor_cmd is not None:
        raise ConfigError("give either --predictions or --predictor-cmd, not both")
    predictor_argv = None if args.predictor_cmd is None else _predictor_argv(args.predictor_cmd)
    cfg = load_run_config(args.config)
    test_path = cfg.test_path if args.in_path is None else args.in_path
    report_path = cfg.report_path if args.out is None else args.out
    beam = cfg.beam if args.beam is None else checked_beam(args.beam)
    tol = cfg.tolerance if args.tolerance is None else as_tolerance(args.tolerance)

    records = _load_records(test_path)
    row = {"model": "transformer", "batch_size": "-", "epochs": "-"}
    if args.predictions is not None or predictor_argv is not None:
        predictions, source = _external_predictions(args, predictor_argv, records)
        row["model"] = "external"
    else:
        ckpt_path = cfg.checkpoint_path if args.checkpoint is None else args.checkpoint
        ckpt = _load_checkpoint_file(ckpt_path)
        predictions = _predict_with_checkpoint(ckpt, records, beam)
        source = f"checkpoint {ckpt_path}"
        row["batch_size"] = ckpt.extra.get("batch_size", "-")
        row["epochs"] = ckpt.extra.get("epochs", "-")

    report = evaluate_corpus(predictions, records, tolerance=tol)
    report["metadata"] = {
        "seed": cfg.seed,
        "source": source,
        "tolerance": str(tol),
        "beam": beam,
        "test_path": str(test_path),
    }
    _write_json(report_path, report)
    row.update(bleu=report["corpus_bleu"], accuracy=report["solution_accuracy"])
    print(format_results_table([row]))
    print(f"report written to {report_path}")
    return EXIT_OK


def cmd_solve(args) -> int:
    _reject_empty_paths(checkpoint=args.checkpoint)
    if args.equation and args.problem:
        raise ConfigError("give either --equation or a problem text, not both")
    if args.equation:
        print(_format_value(solve(parse_equation(args.equation))))
        return EXIT_OK
    if not args.problem:
        raise ConfigError("nothing to solve: pass --equation or a problem text")
    cfg = load_run_config(args.config)
    beam = cfg.beam if args.beam is None else checked_beam(args.beam)
    ckpt = _load_checkpoint_file(cfg.checkpoint_path if args.checkpoint is None else args.checkpoint)
    record = ds.MwpRecord(id="cli", problem_text=args.problem, equation_text="x = 0", answer=None)
    predicted = _predict_with_checkpoint(ckpt, [record], beam)[0]
    print(f"equation: {predicted}")
    print(f"value: {_format_value(solve(parse_equation(predicted)))}")
    return EXIT_OK


def _run_grid_batch(cfg: RunConfig, inputs: TrainingInputs, batch_size: int, epochs: tuple,
                    test_records: list[ds.MwpRecord]) -> list[dict]:
    """Rows of the cells (batch_size, e) for e in epochs, in order, off one run to the largest e,
    scored on ``test_records`` with the live parameters after each e. These equal a separate
    e-epoch run's: a shorter run is an exact prefix of a longer one and decoding draws no random
    numbers. A scoring failure marks its own cell, any other failure every cell not yet scored."""
    scored: dict[int, dict] = {}

    def score(epoch: int, params) -> None:
        if epoch not in epochs:
            return
        try:
            ckpt = Checkpoint(params, inputs.model_config, inputs.src_vocab, inputs.tgt_vocab)
            predictions = _predict_with_checkpoint(ckpt, test_records, cfg.beam)
            report = evaluate_corpus(predictions, test_records, tolerance=cfg.tolerance)
            scored[epoch] = {"bleu": report["corpus_bleu"], "accuracy": report["solution_accuracy"]}
        except Exception as exc:  # a cell failure must not kill the remaining cells
            scored[epoch] = {"error": str(exc)}

    try:
        if 0 in epochs:  # train calls back after each epoch only; 0 epochs are the initial parameters
            score(0, init_parameters(inputs.model_config, np.random.default_rng(cfg.seed)))
        if max(epochs) > 0:
            train_config = cfg.train_config(batch_size=batch_size, epochs=max(epochs))
            _train_once(inputs, train_config, callback=lambda stats, params: score(stats.epoch, params))
    except Exception as exc:
        scored = {e: scored.get(e, {"error": str(exc)}) for e in epochs}
    row = {"model": "transformer", "batch_size": batch_size}
    return [{**row, "epochs": e, **scored[e]} for e in epochs]


def _grid_workers(batch_sizes: int) -> int:
    """One process per batch size, at most one per CPU this process may run on. With one
    worker the grid trains in this process, where BLAS keeps all of its threads."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(batch_sizes, cpus)


# BLAS reads these when it loads; one thread per worker keeps the workers
# from running more BLAS threads than there are CPUs between them
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@contextmanager
def _worker_pool(max_workers: int):
    """A process pool whose workers start fresh (``spawn``) with BLAS on one
    thread each. A forked worker would inherit this process's BLAS, already
    loaded with its own thread count. Spawned workers inherit the
    environment, so the variables are set while the pool runs and then put
    back as they were."""
    saved = {name: os.environ.get(name) for name in _ONE_BLAS_THREAD}
    os.environ.update(_ONE_BLAS_THREAD)
    try:
        with ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def cmd_grid(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    for b in cfg.grid_batch_sizes:  # a bad cell is a config error, found before any training
        for e in cfg.grid_epochs:
            cfg.train_config(batch_size=b, epochs=e)
    # a missing test set or a bad reference is a data error, also found before any
    # training: scoring the gold equations runs each one through the scorer's checks
    test_records = _load_records(cfg.test_path)
    evaluate_corpus([r.equation_text for r in test_records], test_records)
    # the train and validation data once, in this process: a data error there
    # is found before any training too, and the workers only train and score
    inputs = _training_inputs(cfg)
    batch_sizes = list(dict.fromkeys(cfg.grid_batch_sizes))
    jobs = [(cfg, inputs, b, cfg.grid_epochs, test_records) for b in batch_sizes]
    if (workers := _grid_workers(len(jobs))) > 1:
        with _worker_pool(workers) as pool:
            runs = dict(zip(batch_sizes, pool.map(_run_grid_batch, *zip(*jobs))))
    else:
        runs = {b: _run_grid_batch(*job) for b, job in zip(batch_sizes, jobs)}
    rows = [row for b in cfg.grid_batch_sizes for row in runs[b]]
    _write_json(cfg.grid_report_path, {"seed": cfg.seed, "rows": rows})
    print(format_results_table(rows))
    print(f"grid report written to {cfg.grid_report_path}")
    return EXIT_OK if all("error" not in r for r in rows) else EXIT_RUNTIME


# --- argument parsing -------------------------------------------------------


def _ratios_arg(value: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated ratios")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``mwp`` argument parser, built once per process: building it
    costs far more than parsing one command line with it."""
    parser = argparse.ArgumentParser(prog="mwp", description="Bengali word-problem-to-equation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of records")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--profile", help="class mix, e.g. add=0.2,sub=0.3,mul=0.2,div=0.25,complex=0.05")
    p.add_argument("--allow-fractions", action="store_true", help="let division answers be non-integers")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("split", help="split a dataset into train/validation/test")
    p.add_argument("--in", dest="in_path", required=True, help="input dataset path")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", type=_ratios_arg, default=(0.8, 0.1, 0.1), help="three ratios summing to 1")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model from config settings")
    p.add_argument("--config", help="run config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or external predictions")
    p.add_argument("--config", help="run config file")
    p.add_argument("--in", dest="in_path", help="test dataset path (default from config)")
    p.add_argument("--out", help="report JSON path (default from config)")
    p.add_argument("--checkpoint", help="checkpoint path (default from config)")
    p.add_argument("--predictions", help="JSONL file of {'id', 'equation'} predictions")
    p.add_argument("--predictor-cmd", help="command reading request JSONL on stdin, writing predictions")
    p.add_argument("--beam", type=int, help="beam size; 0 and 1 both decode greedily")
    p.add_argument("--tolerance", help="solution-accuracy tolerance (rational, default 0)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="solve an equation or a word problem")
    p.add_argument("problem", nargs="?", help="problem text to run through the model")
    p.add_argument("--equation", help="equation to parse and solve directly")
    p.add_argument("--config", help="run config file")
    p.add_argument("--checkpoint", help="checkpoint path (default from config)")
    p.add_argument("--beam", type=int, help="beam size; 0 and 1 both decode greedily")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("grid", help="train/eval every batch-size x epochs cell")
    p.add_argument("--config", help="run config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_grid)
    return parser


def _stdout_to_devnull() -> None:
    """Send further output to os.devnull once the reader of stdout is gone,
    as the SIGPIPE note in Python's ``signal`` docs advises, so the flush at
    exit does not fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # stdout is not a file
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError as exc:
        _stdout_to_devnull()
        print(f"runtime error: standard output closed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivisionByZero as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ds.DatasetError, ParseError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: mwp datagen|split|train|eval|solve|grid.

Exit codes: 0 success, 2 configuration errors (bad flags or config files),
3 data errors (missing or malformed datasets, vocab or id mismatches,
unparseable input equations), 4 runtime errors (division by zero, external
predictor failures, standard output closed by its reader). Identical inputs
and seed produce byte-identical output artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import synth
from .atomic import write_text_atomic
from .equation import DivisionByZero, ParseError, format_number, parse_equation, solve
from .metrics import evaluate_corpus, format_results_table
from .model import (
    Checkpoint,
    FilePredictions,
    SubprocessPredictor,
    beam_decode_batch,
    external_predict,
    greedy_decode_batch,
    init_parameters,
    load_checkpoint,
    prepare_pairs,
    save_checkpoint,
    train,
)
from .model.training import source_ids, target_tokens
from .preprocess import Vocab, build_vocab, decode, tokenize
from .runconfig import ConfigError, RunConfig, as_tolerance, checked_beam, load_run_config, validate_ratios

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


def _infer_format(path: str | Path, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "tsv" if str(path).endswith(".tsv") else "jsonl"


def _load_records(path: str | Path, fmt: str | None = None) -> list[ds.MwpRecord]:
    file = Path(path)
    if not file.is_file():
        raise ds.DatasetError(f"dataset file not found: {file}")
    return ds.load_dataset(file, format=_infer_format(file, fmt))


def _ensure_vocabs(cfg: RunConfig, train_records: list[ds.MwpRecord] | None) -> tuple[Vocab, Vocab]:
    vocab_dir = Path(cfg.vocab_dir)
    src_path, tgt_path = vocab_dir / "src_vocab.txt", vocab_dir / "tgt_vocab.txt"
    if src_path.is_file() and tgt_path.is_file():
        return Vocab.load(src_path), Vocab.load(tgt_path)
    if train_records is None:
        raise ds.DatasetError(f"vocabulary files missing under {vocab_dir}")
    src_vocab = build_vocab(tokenize(r.problem_text) for r in train_records)
    tgt_vocab = build_vocab(target_tokens(r) for r in train_records)
    vocab_dir.mkdir(parents=True, exist_ok=True)
    src_vocab.save(src_path)
    tgt_vocab.save(tgt_path)
    return src_vocab, tgt_vocab


def _check_max_len(records, lengths, max_len: int) -> None:
    """Raise a data error naming the records whose length exceeds ``max_len``."""
    too_long = [rec.id for rec, n in zip(records, lengths) if n > max_len]
    if too_long:
        raise ds.DatasetError(f"{len(too_long)} record(s) exceed max_len={max_len}: {too_long[:5]}")


def _checked_pairs(records, src_vocab, tgt_vocab, max_len):
    pairs = prepare_pairs(records, src_vocab, tgt_vocab)
    _check_max_len(records, (max(len(s), len(t) - 1) for s, t in pairs), max_len)
    return pairs


def _train_once(
    cfg: RunConfig,
    train_records,
    val_records,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    batch_size: int | None = None,
    epochs: int | None = None,
    callback=None,
):
    model_config = cfg.model_config(len(src_vocab), len(tgt_vocab))
    train_config = cfg.train_config(batch_size=batch_size, epochs=epochs)
    pairs = _checked_pairs(train_records, src_vocab, tgt_vocab, model_config.max_len)
    val_pairs = (
        _checked_pairs(val_records, src_vocab, tgt_vocab, model_config.max_len) if val_records else None
    )
    params = init_parameters(model_config, np.random.default_rng(train_config.seed))
    # train stops a diverging run with one RuntimeError (exit 4), so numpy's
    # overflow and invalid-value warnings on the way there are not printed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = train(params, model_config, train_config, pairs, val_pairs, callback=callback)
    return result.params, model_config, train_config


def _predict_with_checkpoint(ckpt: Checkpoint, records, beam: int) -> list[str]:
    sources = [source_ids(rec, ckpt.src_vocab) for rec in records]
    _check_max_len(records, map(len, sources), ckpt.config.max_len)
    # decoding stops at non-finite logits with one ValueError (exit 3), so numpy's
    # overflow warnings from huge but finite weights on the way there are not printed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if beam > 0:
            decoded = beam_decode_batch(ckpt.params, ckpt.config, sources, beam_size=beam)
        else:
            decoded = greedy_decode_batch(ckpt.params, ckpt.config, sources)
    return [" ".join(decode(ids, ckpt.tgt_vocab)) for ids in decoded]


def _load_checkpoint_file(path: str | Path) -> Checkpoint:
    file = Path(path)
    if not file.is_file():
        raise ds.DatasetError(f"checkpoint not found: {file}")
    return load_checkpoint(file)  # a malformed file raises ValueError, a data error in main


def _external_predictions(args, records) -> tuple[list[str], str]:
    """Predictions from ``--predictions`` or ``--predictor-cmd``, and their
    source. The predictor, which may hold a whole file of predictions, is
    freed on return, before the records are scored."""
    if args.predictions:
        pred_file = Path(args.predictions)
        if not pred_file.is_file():
            raise ds.DatasetError(f"predictions file not found: {pred_file}")
        predictor, source = FilePredictions(pred_file), f"predictions file {pred_file}"
    else:
        predictor = SubprocessPredictor(shlex.split(args.predictor_cmd))
        source = f"predictor command {args.predictor_cmd!r}"
    return external_predict([(r.id, r.problem_text) for r in records], predictor), source


def _write_json(path: str | Path, payload: dict) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out, json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


# --- commands ---------------------------------------------------------------


def cmd_datagen(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    profile = synth.DEFAULT_PROFILE
    if args.profile:
        profile = {}
        for item in args.profile.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--profile entries must look like add=0.2, got {item!r}")
            profile[key.strip()] = value.strip()
    try:
        records = synth.generate_synthetic(args.n, args.seed, profile, allow_fractions=args.allow_fractions)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.save_dataset(records, out)
    counts = ds.summarize(records)
    print(f"wrote {len(records)} records to {out}")
    for name, count in counts.items():
        print(f"  {name}: {count}")
    return EXIT_OK


def cmd_split(args) -> int:
    records = _load_records(args.in_path, args.format)
    ratios = args.ratios if args.ratios else (0.8, 0.1, 0.1)
    validate_ratios(ratios)
    parts = ds.split_dataset(records, args.seed, ratios)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in zip(("train", "validation", "test"), parts):
        ds.save_dataset(part, out_dir / f"{name}.jsonl")
        print(f"{name}: {len(part)} records -> {out_dir / f'{name}.jsonl'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    train_records = _load_records(cfg.train_path)
    val_records = _load_records(cfg.validation_path) if Path(cfg.validation_path).is_file() else None
    src_vocab, tgt_vocab = _ensure_vocabs(cfg, train_records)

    lines: list[str] = []

    def on_epoch(stats, params) -> None:
        line = f"epoch={stats.epoch} train_loss={stats.train_loss:.6f}"
        if stats.val_loss is not None:
            line += f" val_loss={stats.val_loss:.6f}"
        lines.append(line)
        print(line)

    params, model_config, train_config = _train_once(
        cfg, train_records, val_records, src_vocab, tgt_vocab, callback=on_epoch
    )
    history = Path(cfg.history_path)
    history.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(history, "".join(line + "\n" for line in lines))

    ckpt_path = Path(cfg.checkpoint_path)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        ckpt_path,
        params,
        model_config,
        src_vocab,
        tgt_vocab,
        extra={
            "seed": train_config.seed,
            "batch_size": train_config.batch_size,
            "epochs": train_config.epochs,
            "learning_rate": train_config.learning_rate,
        },
    )
    print(f"saved checkpoint to {ckpt_path}")
    print(f"history written to {history}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.predictions and args.predictor_cmd:
        raise ConfigError("give either --predictions or --predictor-cmd, not both")
    cfg = load_run_config(args.config, args.seed)
    test_path = args.in_path or cfg.test_path
    report_path = args.out or cfg.report_path
    beam = cfg.beam if args.beam is None else checked_beam(args.beam)
    tol = cfg.tolerance if args.tolerance is None else as_tolerance(args.tolerance)

    records = _load_records(test_path, args.format)
    row = {"model": "transformer", "batch_size": "-", "epochs": "-"}
    if args.predictions or args.predictor_cmd:
        predictions, source = _external_predictions(args, records)
        row["model"] = "external"
    else:
        ckpt = _load_checkpoint_file(args.checkpoint or cfg.checkpoint_path)
        predictions = _predict_with_checkpoint(ckpt, records, beam)
        source = f"checkpoint {args.checkpoint or cfg.checkpoint_path}"
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
    if args.equation and args.problem:
        raise ConfigError("give either --equation or a problem text, not both")
    if args.equation:
        print(_format_value(solve(parse_equation(args.equation))))
        return EXIT_OK
    if not args.problem:
        raise ConfigError("nothing to solve: pass --equation or a problem text")
    cfg = load_run_config(args.config)
    beam = cfg.beam if args.beam is None else checked_beam(args.beam)
    ckpt = _load_checkpoint_file(args.checkpoint or cfg.checkpoint_path)
    record = ds.MwpRecord(id="cli", problem_text=args.problem, equation_text="x = 0", answer=None)
    predicted = _predict_with_checkpoint(ckpt, [record], beam)[0]
    print(f"equation: {predicted}")
    print(f"value: {_format_value(solve(parse_equation(predicted)))}")
    return EXIT_OK


def _run_grid_batch(config_path: str | None, seed: int | None, batch_size: int, epochs: tuple,
                    test_records: list[ds.MwpRecord]) -> list[dict]:
    """Rows of the cells (batch_size, e) for e in epochs, in order, off one run to the largest e,
    scored on ``test_records`` with the live parameters after each e. These equal a separate
    e-epoch run's: a shorter run is an exact prefix of a longer one and decoding draws no random
    numbers. A scoring failure marks its own cell, any other failure every cell not yet scored."""
    scored: dict[int, dict] = {}
    try:
        cfg = load_run_config(config_path, seed)
        train_records = _load_records(cfg.train_path)
        val_records = _load_records(cfg.validation_path) if Path(cfg.validation_path).is_file() else None
        src_vocab, tgt_vocab = _ensure_vocabs(cfg, train_records)
        model_config = cfg.model_config(len(src_vocab), len(tgt_vocab))

        def score(epoch: int, params) -> None:
            if epoch not in epochs:
                return
            try:
                ckpt = Checkpoint(params=params, config=model_config, src_vocab=src_vocab, tgt_vocab=tgt_vocab)
                predictions = _predict_with_checkpoint(ckpt, test_records, cfg.beam)
                report = evaluate_corpus(predictions, test_records, tolerance=cfg.tolerance)
                scored[epoch] = {"bleu": report["corpus_bleu"], "accuracy": report["solution_accuracy"]}
            except Exception as exc:  # a cell failure must not kill the remaining cells
                scored[epoch] = {"error": str(exc)}

        run = (cfg, train_records, val_records, src_vocab, tgt_vocab, batch_size)
        if 0 in epochs:  # train calls back after each epoch only, so a 0-epoch cell gets its own run
            score(0, _train_once(*run, epochs=0)[0])
        if max(epochs) > 0:
            _train_once(*run, epochs=max(epochs), callback=lambda stats, params: score(stats.epoch, params))
    except Exception as exc:
        scored = {e: scored.get(e, {"error": str(exc)}) for e in epochs}
    row = {"model": "transformer", "batch_size": batch_size}
    return [{**row, "epochs": e, **scored[e]} for e in epochs]


def _grid_workers(batch_sizes: int) -> int:
    """One process per batch size, at most one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(batch_sizes, cpus)


def cmd_grid(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    for b in cfg.grid_batch_sizes:  # a bad cell is a config error, found before any training
        for e in cfg.grid_epochs:
            cfg.train_config(batch_size=b, epochs=e)
    # a missing test set or a bad reference is a data error, also found before any
    # training: scoring the gold equations runs each one through the scorer's checks
    test_records = _load_records(cfg.test_path)
    evaluate_corpus([r.equation_text for r in test_records], test_records)
    # build vocabs up front so concurrent workers never race on the files
    _ensure_vocabs(cfg, _load_records(cfg.train_path))
    batch_sizes = list(dict.fromkeys(cfg.grid_batch_sizes))
    jobs = [(args.config, cfg.seed, b, cfg.grid_epochs, test_records) for b in batch_sizes]
    if args.parallel:
        with ProcessPoolExecutor(max_workers=_grid_workers(len(jobs))) as pool:
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
    p.add_argument("--ratios", type=_ratios_arg, help="three ratios summing to 1, e.g. 0.8,0.1,0.1")
    p.add_argument("--format", choices=("jsonl", "tsv"), help="input format (default: by extension)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model from config settings")
    p.add_argument("--config", help="run config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or external predictions")
    p.add_argument("--config", help="run config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--in", dest="in_path", help="test dataset path (default from config)")
    p.add_argument("--out", help="report JSON path (default from config)")
    p.add_argument("--checkpoint", help="checkpoint path (default from config)")
    p.add_argument("--predictions", help="JSONL file of {'id', 'equation'} predictions")
    p.add_argument("--predictor-cmd", help="command reading request JSONL on stdin, writing predictions")
    p.add_argument("--beam", type=int, help="beam size; 0 decodes greedily")
    p.add_argument("--tolerance", help="solution-accuracy tolerance (rational, default 0)")
    p.add_argument("--format", choices=("jsonl", "tsv"), help="test set format (default: by extension)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="solve an equation or a word problem")
    p.add_argument("problem", nargs="?", help="problem text to run through the model")
    p.add_argument("--equation", help="equation to parse and solve directly")
    p.add_argument("--config", help="run config file")
    p.add_argument("--checkpoint", help="checkpoint path (default from config)")
    p.add_argument("--beam", type=int, help="beam size; 0 decodes greedily")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("grid", help="train/eval every batch-size x epochs cell")
    p.add_argument("--config", help="run config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--parallel", action="store_true", help="train the batch sizes concurrently")
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

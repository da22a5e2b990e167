"""Benchmark of the ``mwp`` pipeline: training, decoding and scoring.

    python3 bench/run.py --workload train|infer|score --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process drives one workload from one
thread through ``mwp.cli.main``, with BLAS pinned to ``BLAS_THREADS``
threads. It generates the workload's inputs from ``--seed``, times program
set-up, warms up, then repeats whole rounds of ``mwp`` commands until
``--seconds`` have passed, checks every output against the reference
computations in ``oracle.py``, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the layer functions are
wrapped in spans and the metrics are the per-layer ones from ``layers.py``.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import fixture  # noqa: E402
from layers import METRICS, per_layer, throughput  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 7


def purge_mwp() -> None:
    for name in [m for m in sys.modules if m == "mwp" or m.startswith("mwp.")]:
        del sys.modules[name]


def timed_setup(workload) -> float:
    """Median time to import ``mwp`` afresh and load the workload's inputs
    through the program's own loaders."""
    times = []
    for _ in range(SETUP_REPEATS):
        purge_mwp()
        start = time.perf_counter()
        importlib.import_module("mwp.cli")
        workload.load()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    importlib.import_module("mwp.cli")
    recorder = Recorder() if trace else None
    if recorder:
        recorder.install()
    workload.generate(Runner(recorder))
    if recorder:
        recorder.uninstall()
    setup_s = timed_setup(workload)
    if recorder:
        recorder.install()
    # the benchmark's own inputs and outputs move to a generation the
    # collector never scans, so they do not slow the program's collections
    gc.collect()
    gc.freeze()
    runner = Runner(recorder)
    workload.warmup(runner)
    start = time.perf_counter()
    while True:
        workload.round(runner)
        if time.perf_counter() - start >= seconds:
            break
    timed_wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder:
        recorder.uninstall()

    correct = True
    try:
        workload.check()
    except Exception as exc:  # any fault found while checking outputs fails the run
        correct = False
        print(f"check failed on {workload.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    for error in runner.errors:
        print(f"operation failed: {error}", file=sys.stderr)

    if trace:
        metrics = per_layer(recorder.spans, runner, workload.decode_counts(), timed_wall)
        if spans_path:
            recorder.write(spans_path)
        units = {name: unit for name, (unit, _) in METRICS.items()}
    else:
        requests = sorted(runner.seconds["request"])
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "bulk_a_items_per_s": throughput(runner, "bulk_a"),
            "bulk_b_items_per_s": throughput(runner, "bulk_b"),
            "request_ms_p50": statistics.median(requests) * 1e3,
            "request_ms_p90": statistics.quantiles(requests, n=10)[-1] * 1e3,
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bulk_a_items_per_s": "items/s",
    "bulk_b_items_per_s": "items/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the mwp pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mwp" / "cli.py").is_file():
        print(f"no program source at {SRC / 'mwp'}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fixture_dir = fixture.ensure(WORK, SRC, BLAS_THREADS)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](run_dir, args.seed, fixture_dir)
        result = measure(workload, args.seconds, bool(args.trace), WORK / f"spans-{args.workload}.tsv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

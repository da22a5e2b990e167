"""The trained checkpoint the ``infer`` workload decodes with.

It is trained by the program's own ``mwp datagen``, ``mwp split`` and
``mwp train`` from fixed seeds, in a child process so that its memory and
time stay out of the measuring process. The result is cached under the
benchmark's ignored work directory, keyed by the source of ``src/mwp``, the
recipe and the BLAS thread count, so a stale checkpoint is never reused.

Run directly it builds one fixture: ``python3 bench/fixture.py --src src
--out DIR --recipe JSON``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# Reference model shape (the config defaults) on a class mix with enough
# complex problems that outputs run from 5 to 11 tokens.
RECIPE = {
    "records": 1000,
    "data_seed": 11,
    "profile": "add=0.2,sub=0.2,mul=0.2,div=0.2,complex=0.2",
    "split_seed": 11,
    "train_seed": 0,
    "batch_size": 8,
    "epochs": 12,
    "model": {},
}

BUILD_TIMEOUT_S = 900


def cache_key(src: Path, recipe: dict, blas_threads: int) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "mwp").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    digest.update(json.dumps(recipe, sort_keys=True).encode())
    digest.update(f"blas_threads={blas_threads}".encode())
    return digest.hexdigest()[:20]


def config_text(directory: Path, recipe: dict) -> str:
    lines = [
        f"data.train = {directory / 'parts' / 'train.jsonl'}",
        f"data.validation = {directory / 'parts' / 'validation.jsonl'}",
        f"data.test = {directory / 'parts' / 'test.jsonl'}",
        f"paths.vocab_dir = {directory / 'vocab'}",
        f"paths.checkpoint = {directory / 'model.ckpt'}",
        f"paths.history = {directory / 'history.txt'}",
        f"paths.report = {directory / 'report.json'}",
        f"seed = {recipe['train_seed']}",
        f"train.batch_size = {recipe['batch_size']}",
        f"train.epochs = {recipe['epochs']}",
    ]
    lines += [f"model.{key} = {value}" for key, value in recipe["model"].items()]
    return "\n".join(lines) + "\n"


def ensure(work: Path, src: Path, blas_threads: int, recipe: dict = RECIPE) -> Path:
    """Directory holding ``model.ckpt`` and ``run.cfg``, built if missing."""
    key = cache_key(src, recipe, blas_threads)
    final = work / f"fixture-{key}"
    if (final / "model.ckpt").is_file():
        return final
    work.mkdir(parents=True, exist_ok=True)
    building = work / f"building-{key}-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir()
    try:
        with open(building / "build.log", "w", encoding="utf-8") as log:
            subprocess.run(
                [sys.executable, __file__, "--src", str(src), "--out", str(building),
                 "--recipe", json.dumps(recipe)],
                stdout=log, stderr=subprocess.STDOUT, check=True, timeout=BUILD_TIMEOUT_S,
            )
        # paths inside the config are absolute, so rewrite it for the final name
        (building / "run.cfg").write_text(config_text(final, recipe), encoding="utf-8")
        if not final.exists():
            os.replace(building, final)
    finally:
        shutil.rmtree(building, ignore_errors=True)
    return final


def build(src: Path, out: Path, recipe: dict) -> None:
    sys.path.insert(0, str(src))
    from mwp.cli import main

    (out / "run.cfg").write_text(config_text(out, recipe), encoding="utf-8")
    steps = [
        ["datagen", "--n", str(recipe["records"]), "--seed", str(recipe["data_seed"]),
         "--profile", recipe["profile"], "--out", str(out / "data.jsonl")],
        ["split", "--in", str(out / "data.jsonl"), "--out", str(out / "parts"),
         "--seed", str(recipe["split_seed"])],
        ["train", "--config", str(out / "run.cfg")],
    ]
    for argv in steps:
        code = main(argv)
        if code != 0:
            raise SystemExit(f"fixture step {argv[0]} exited with {code}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--recipe", default=json.dumps(RECIPE))
    args = parser.parse_args()
    build(Path(args.src), Path(args.out), json.loads(args.recipe))

"""Adapters for scoring predictions produced outside this package.

The exchange format is JSONL: requests are lines of
``{"id": ..., "problem": ...}`` and responses are lines of
``{"id": ..., "equation": ...}``. Responses may arrive in any order; results
are re-aligned by id, and missing, duplicate, or unrequested ids are
reported explicitly rather than silently dropped.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Sequence

from ..atomic import read_utf8


def _parse_response_lines(lines: Sequence[str], source: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}, line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj or "equation" not in obj:
            raise ValueError(f'{source}, line {lineno}: expected {{"id", "equation"}} keys')
        rid = str(obj["id"])
        if rid in out:
            raise ValueError(f"{source}, line {lineno}: duplicate id {rid!r}")
        out[rid] = str(obj["equation"])
    return out


class FilePredictions:
    """Serve predictions from a JSONL file written ahead of time."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._by_id = _parse_response_lines(read_utf8(self.path).splitlines(), str(self.path))

    def predict(self, items: Sequence[tuple[str, str]]) -> dict[str, str]:
        return {str(rid): self._by_id[str(rid)] for rid, _ in items if str(rid) in self._by_id}


class SubprocessPredictor:
    """Run a command that reads request JSONL on stdin and writes responses."""

    def __init__(self, argv: Sequence[str], timeout: float | None = None):
        if not argv:
            raise ValueError("argv must name a command to run")
        self.argv = list(argv)
        self.timeout = timeout

    def predict(self, items: Sequence[tuple[str, str]]) -> dict[str, str]:
        request = "".join(
            json.dumps({"id": str(rid), "problem": problem}, ensure_ascii=False) + "\n"
            for rid, problem in items
        )
        try:
            proc = subprocess.run(
                self.argv,
                input=request,
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except OSError as exc:  # no such program, or not executable
            raise RuntimeError(f"predictor command {self.argv[0]!r} could not start: {exc}") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            raise RuntimeError(
                f"predictor command {self.argv[0]!r} exited with {proc.returncode}: "
                + " | ".join(tail)
            )
        return _parse_response_lines(proc.stdout.splitlines(), f"{self.argv[0]} output")


def external_predict(items: Sequence[tuple[str, str]], predictor) -> list[str]:
    """Predicted equations aligned with items; raises if ids do not line up.
    ``predictor.predict(items)`` maps (id, problem) pairs to {id: equation}."""
    ids = [str(rid) for rid, _ in items]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate request ids: {dupes}")
    results = predictor.predict(items)
    missing = sorted(set(ids) - results.keys())
    extra = sorted(results.keys() - set(ids))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing predictions for {missing[:10]}{'...' if len(missing) > 10 else ''}")
        if extra:
            parts.append(f"unrequested ids {extra[:10]}{'...' if len(extra) > 10 else ''}")
        raise ValueError("; ".join(parts))
    return [results[rid] for rid in ids]

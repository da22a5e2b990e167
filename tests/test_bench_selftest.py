"""The benchmark's toy-size self-test as a tier-1 test.

``bench/selftest.py`` runs every benchmark workload once on shrunken inputs
and a small model, with all of its checks on: the greedy tokens against a
teacher-forced argmax, beam_size=1 against greedy, reports against the
reference scorer, gradients against finite differences. It then feeds each
check a corrupted result and requires it to fail. A change that breaks
decoding, scoring or training therefore fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

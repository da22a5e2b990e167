"""Every ``mwp`` name the benchmark calls or wraps is still bound.

``bench/spans.py`` patches functions at the module and name their callers
look them up under, and silently skips a name the module lacks, so an import
cleanup in ``mwp.cli`` would empty that layer's per-layer metrics without an
error. The table is read from the file by path. The names the workloads and
the self-test call directly are checked too, so deleting one fails here and
not first in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import mwp.cli
from mwp.dataset import MwpRecord
from mwp.metrics import evaluate_corpus

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
# the decoders moved to batch functions the table does not name, so these
# rows already match nothing
DEAD_ROWS = {"greedy_decode", "beam_decode"}


def layer_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


CLI_NAMES = [attr for module, attr, _, _ in layer_functions() if module == "mwp.cli" and attr not in DEAD_ROWS]


def test_span_table_names_cli_bindings():
    assert CLI_NAMES  # an empty table would leave nothing below to check


@pytest.mark.parametrize("name", CLI_NAMES)
def test_span_table_cli_binding_exists(name):
    assert callable(getattr(mwp.cli, name, None)), f"mwp.cli no longer binds {name!r}"


# the names bench/workloads.py and bench/selftest.py call on mwp's modules
# directly, outside mwp.cli: a deleted one fails the benchmark run itself
BENCH_CALLS = [
    ("mwp.model.network", "forward"),
    ("mwp.model.network", "backward"),
    ("mwp.model.optim", "adam_step"),
    ("mwp.model.optim", "AdamState"),
    ("mwp.model.decoding", "beam_decode"),
    ("mwp.model.training", "prepare_pairs"),
    ("mwp.model.checkpoint", "load_checkpoint"),
    ("mwp.dataset", "load_dataset"),
]


@pytest.mark.parametrize("module, name", BENCH_CALLS, ids=[f"{m}.{n}" for m, n in BENCH_CALLS])
def test_bench_called_name_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module} no longer has {name!r}"


def test_evaluate_corpus_result_has_n_records_attribute():
    # bench/spans.py counts a traced evaluate_corpus call's records as result.n_records
    records = [MwpRecord("1", "p", "x = 1 + 2"), MwpRecord("2", "q", "x = 4")]
    assert evaluate_corpus(["x = 3", "x = 5"], records).n_records == 2

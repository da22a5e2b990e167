"""Every ``mwp.cli`` name the benchmark's span table wraps is still bound.

``bench/spans.py`` patches functions at the module and name their callers
look them up under, and silently skips a name the module lacks, so an import
cleanup in ``mwp.cli`` would empty that layer's per-layer metrics without an
error. The table is read from the file by path.
"""

import importlib.util
from pathlib import Path

import pytest

import mwp.cli

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

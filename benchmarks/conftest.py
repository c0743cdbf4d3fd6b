"""Shared fixtures for the benchmark harness.

Each ``test_bench_*`` module regenerates one of the paper's tables or
figures (see DESIGN.md's per-experiment index); pytest-benchmark provides the
timing statistics, and ``extra_info`` carries the non-timing columns
(AC nodes, CNF clauses, ...).

Run with::

    pytest benchmarks/ --benchmark-only

Benchmarks that emit machine-readable ``BENCH_*.json`` artifacts write them
to the directory named by the ``BENCH_OUTPUT_DIR`` environment variable
(created if missing); without it they go to a per-session temporary
directory, so a test run never rewrites files in the checkout::

    BENCH_OUTPUT_DIR=bench-out pytest benchmarks/test_bench_api.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


#: Test tiers, applied by directory (see tests/conftest.py): items under
#: benchmarks/ are ``bench``, so ``pytest -m "not bench"`` skips them.
TIER_MARKERS = (
    "correctness: functional and statistical tests under tests/",
    "bench: benchmark harness under benchmarks/",
)


def pytest_configure(config):
    for line in TIER_MARKERS:
        config.addinivalue_line("markers", line)


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(config, items):
    here = Path(__file__).resolve().parent
    for item in items:
        if here in item.path.resolve().parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def bench_output_dir(tmp_path_factory) -> Path:
    """Where ``BENCH_*.json`` artifacts go: ``$BENCH_OUTPUT_DIR`` or a temp dir."""
    configured = os.environ.get("BENCH_OUTPUT_DIR")
    if not configured:
        return tmp_path_factory.mktemp("bench-output")
    directory = Path(configured)
    directory.mkdir(parents=True, exist_ok=True)
    return directory

"""Pytest wiring for the paper-reproduction benchmarks.

Bench modules register regenerated paper tables through
:mod:`bench_common`; the ``pytest_terminal_summary`` hook below prints
them all after the run, so the rows are visible without ``-s``.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from bench_common import (  # noqa: E402
    SNAPSHOT_PATH,
    record_table,
    recorded_tables,
    write_perf_baseline,
)


def pytest_sessionfinish(session, exitstatus):
    """Persist the machine-readable perf baseline to ``SNAPSHOT_PATH``.

    ``REPRO_BENCH_JSON`` overrides the output path; nothing is written
    when no benchmark exercised :func:`bench_common.compare_system`.
    Compare the result against a prior baseline with ``bench_compare.py``.
    """
    path = os.environ.get("REPRO_BENCH_JSON") or SNAPSHOT_PATH
    write_perf_baseline(path)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tables = recorded_tables()
    if not tables:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "regenerated paper tables")
    for title, lines in tables:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title}")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def recorder():
    """Fixture handing benches the table recorder."""
    return record_table

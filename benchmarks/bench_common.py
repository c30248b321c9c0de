"""Shared helpers for the paper-reproduction benchmarks.

Kept outside ``conftest.py`` so bench modules can import it by name
regardless of how pytest assembles ``sys.path``.

The "proposed" method runs through the batch engine
(:class:`repro.engine.BatchEngine`), so benchmark reruns hit the
content-hash cache and the harness exposes the same knobs as
``python -m repro batch``:

* ``REPRO_BENCH_WORKERS`` — process pool size for cold runs (default 1),
* ``REPRO_BENCH_CACHE_DIR`` — on-disk cache directory; set it to make
  warm-cache reruns measurable across processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import asdict

from repro import RunConfig, compare_methods, method_outcome
from repro.core import SynthesisOptions
from repro.engine import BatchEngine, BatchJob
from repro.obs import env_events_settings, env_trace_settings
from repro.suite import get_system

_REPORTS: list[tuple[str, list[str]]] = []


def record_table(title: str, lines: list[str]) -> None:
    """Register a regenerated paper table for the end-of-run summary."""
    _REPORTS.append((title, list(lines)))


def recorded_tables() -> list[tuple[str, list[str]]]:
    return list(_REPORTS)


_COMPARISON_CACHE: dict[str, dict] = {}

#: Search knobs per system: the 16/25-polynomial SG rows get a smaller
#: descent budget so the whole Table 14.3 regeneration stays tractable.
_OPTIONS: dict[str, SynthesisOptions] = {
    "SG 4X2": SynthesisOptions(descent_budget=60),
    "SG 4X3": SynthesisOptions(descent_budget=40),
    "SG 5X2": SynthesisOptions(descent_budget=40),
    "SG 5X3": SynthesisOptions(descent_budget=30),
}

ENGINE = BatchEngine(
    RunConfig(
        workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE_DIR"),
    )
)


def bench_options(name: str) -> SynthesisOptions:
    """The search knobs a named system is benchmarked with."""
    return _OPTIONS.get(name, SynthesisOptions())


def synthesize_named(names: list[str]):
    """Batch the proposed flow over named systems; returns the BatchReport."""
    return ENGINE.run(
        BatchJob(system=get_system(name), options=bench_options(name), name=name)
        for name in names
    )


def compare_system(name: str) -> dict:
    """Cached compare_methods() over a named benchmark system.

    Baselines run in-process (they are cheap); the proposed flow goes
    through the batch engine so repeated table regenerations and
    multi-bench runs share one cached synthesis per system.
    """
    if name not in _COMPARISON_CACHE:
        system = get_system(name)
        options = bench_options(name)
        outcomes = compare_methods(
            system, options, methods=("direct", "horner", "factor+cse")
        )
        started = time.perf_counter()
        [result] = synthesize_named([name]).results
        wall = time.perf_counter() - started
        if result.error is not None:
            raise RuntimeError(f"engine failed on {name}: {result.error}")
        assert result.decomposition is not None
        outcomes["proposed"] = method_outcome(
            "proposed", result.decomposition, system
        )
        _COMPARISON_CACHE[name] = outcomes
        _PERF[name] = {
            "wall_seconds": round(wall, 6),
            "synth_seconds": round(result.seconds, 6),
            "cache_hit": result.cache_hit,
            "options": asdict(options),
            "methods": {
                method: {
                    "mul": outcome.op_count.mul,
                    "add": outcome.op_count.add,
                    "area": round(outcome.hardware.area, 2),
                    "delay": round(outcome.hardware.delay, 2),
                }
                for method, outcome in outcomes.items()
            },
        }
    return _COMPARISON_CACHE[name]


# ----------------------------------------------------------------------
# The machine-readable perf-trajectory baseline (BENCH_PR*.json)
# ----------------------------------------------------------------------

_PERF: dict[str, dict] = {}

#: The current snapshot's label; the suites write ``BENCH_<label>.json``
#: and ``bench_compare.py`` judges that file by default.
SNAPSHOT_LABEL = "PR10"
SNAPSHOT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), f"BENCH_{SNAPSHOT_LABEL}.json"
)

#: Label stamped into the snapshot.  ``REPRO_BENCH_LABEL`` overrides it
#: for side-channel snapshots (e.g. the CI obs-overhead gate's "OBS" run).
BASELINE_LABEL = os.environ.get("REPRO_BENCH_LABEL", SNAPSHOT_LABEL)


def _git_sha() -> str | None:
    """The repository HEAD this snapshot was measured at, if discoverable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def perf_snapshot() -> dict:
    """Everything a future PR compares itself against, as one JSON-able dict.

    Besides the per-benchmark numbers, the snapshot records the exact
    measurement conditions: the engine's active :class:`RunConfig`, the
    git commit, and whether ambient tracing was on (an obs-enabled run
    measures instrumented code and must not be compared against a
    zero-cost-path baseline).
    """
    return {
        "kind": "bench-baseline",
        "baseline": BASELINE_LABEL,
        "workers": ENGINE.workers,
        "cache": asdict(ENGINE.cache.stats),
        "config": ENGINE.config.as_dict(),
        "git_sha": _git_sha(),
        "obs_enabled": env_trace_settings()[0] or env_events_settings()[0],
        "benchmarks": {name: _PERF[name] for name in sorted(_PERF)},
    }


def write_perf_baseline(path: str) -> bool:
    """Write the baseline JSON; returns False when no benchmark ran."""
    snapshot = perf_snapshot()
    if not snapshot["benchmarks"]:
        return False
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return True

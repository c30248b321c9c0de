"""Benchmark-side spans around calls into ``repro``'s layers.

Tracing here never edits the program: :func:`patched` rebinds each traced
public function *where its consumer looked it up* (for example
``repro.core.algdiv.divmod_poly``, the name ``algdiv`` imported at module
load) to a wrapper that records a span, and restores every original
binding on exit.  Names imported lazily inside a function body
(``from repro.poly import divide_out_all``) are patched on the package
they are imported from.

Each span is ``(name, start, end, parent, request)``; spans stay in
memory and are written once, at the end of the run.  A layer's self
time is the sum of its spans' durations minus the durations of their
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Iterator

#: (owner, attribute, span name).  ``owner`` is a module path, or
#: ``module:Class`` for a method.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.engine:BatchEngine", "run", "engine.run"),
    ("repro.engine.engine", "synthesize", "core.synthesize"),
    ("repro.core.algdiv", "divmod_poly", "poly.divmod_poly"),
    ("repro.poly.division", "divmod_poly", "poly.divmod_poly"),
    ("repro.poly", "divide_out_all", "poly.divide_out_all"),
    ("repro.core.synth", "eliminate_common_subexpressions",
     "cse.eliminate_common_subexpressions"),
    ("repro.cse.extract", "all_kernels", "cse.all_kernels"),
    ("repro.cse.kcm", "all_kernels", "cse.all_kernels"),
    ("repro.core.cube_extract", "all_kernels", "cse.all_kernels"),
    ("repro.core.synth", "division_candidates",
     "core.algdiv.division_candidates"),
    ("repro.core.synth", "refine_block_definitions",
     "core.algdiv.refine_block_definitions"),
    ("repro.core.representations", "common_coefficient_extraction",
     "core.cce.common_coefficient_extraction"),
    ("repro.core.synth", "cube_extraction", "core.cube_extract.cube_extraction"),
    ("repro.core.representations", "factor_polynomial",
     "factor.factor_polynomial"),
    ("repro.factor", "factor_polynomial", "factor.factor_polynomial"),
    ("repro.core.representations", "to_canonical", "rings.to_canonical"),
    ("repro.rings.canonical", "to_canonical", "rings.to_canonical"),
    ("repro.core.synth", "functions_equal", "rings.functions_equal"),
    ("repro.cost", "estimate_decomposition", "cost.estimate_decomposition"),
)

#: Span names whose calls and self time become per-layer metrics.
LAYER_SPANS: tuple[str, ...] = tuple(dict.fromkeys(
    name for _, _, name in TARGETS
    if name not in ("engine.run", "core.synthesize")
))

PHASES: tuple[str, ...] = (
    "initial", "cse-exposure", "cce", "cube-extract", "refine",
    "division", "prune", "search", "validate",
)


class SpanRecorder:
    """In-memory span store plus what the wrappers capture on return."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, Any] | None] = []
        self.request: Any = None
        self._local = threading.local()
        self._lock = threading.Lock()
        # Filled by the capture hooks of core.synthesize / engine.run.
        self.phase_seconds = dict.fromkeys(PHASES, 0.0)
        self.provenance = {
            "combinations_scored": 0, "memo_hits": 0,
            "dag_finalists": 0, "dag_intern_hits": 0, "dag_nodes": 0,
        }
        self.engine_seconds = 0.0
        self.job_seconds = 0.0
        self.engine_jobs = 0
        self.engine_hits = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             on_return: Callable[[Any, float], None] | None = None,
             on_call: Callable[[tuple], None] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(args)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent, self.request)
            if on_return is not None:
                on_return(result, end - start)
            return result

        return traced

    # -- capture hooks ------------------------------------------------

    def _on_engine_call(self, args: tuple) -> None:
        # BatchEngine.run(self, jobs): the job labels name the request.
        if isinstance(args[1], list):
            self.request = ",".join(job.label for job in args[1])

    def _on_synthesize(self, result: Any, _seconds: float) -> None:
        if result.timings is not None:
            for phase in result.timings.as_dict()["phases"]:
                if phase["phase"] in self.phase_seconds:
                    self.phase_seconds[phase["phase"]] += phase["seconds"]
        if result.provenance is not None:
            for key in self.provenance:
                self.provenance[key] += getattr(result.provenance, key)

    def _on_engine_run(self, report: Any, seconds: float) -> None:
        self.engine_seconds += seconds
        self.engine_jobs += len(report.results)
        self.engine_hits += report.cache_hits
        self.job_seconds += sum(r.seconds for r in report.results if not r.cache_hit)

    # -- reduction ----------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls": n, "self_s": seconds}}``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            entry = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (span[2] - span[1]) - child_time[index]
        return totals

    def report(self) -> dict[str, Any]:
        """Everything the per-layer metrics are computed from (JSON-able)."""
        return {
            "layers": self.layer_totals(),
            "phase_seconds": dict(self.phase_seconds),
            "provenance": dict(self.provenance),
            "engine": {
                "seconds": self.engine_seconds,
                "job_seconds": self.job_seconds,
                "jobs": self.engine_jobs,
                "hits": self.engine_hits,
            },
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, request = span
                    out.write(json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    ) + "\n")


def _owner(path: str) -> Any:
    module_path, _, class_name = path.partition(":")
    owner = importlib.import_module(module_path)
    return getattr(owner, class_name) if class_name else owner


@contextlib.contextmanager
def patched(recorder: SpanRecorder) -> Iterator[None]:
    """Rebind every target to a span-recording wrapper; restore on exit."""
    on_return = {
        "core.synthesize": recorder._on_synthesize,
        "engine.run": recorder._on_engine_run,
    }
    on_call = {"engine.run": recorder._on_engine_call}
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner_path, attribute, name in TARGETS:
            owner = _owner(owner_path)
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(
                name, original, on_return.get(name), on_call.get(name)
            ))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

"""Benchmark of the polynomial-system synthesis flow, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sg-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``sg-cold`` — passes over the Table 14.3 Savitzky-Golay rows, one at
  a time through ``BatchEngine(workers=1)`` with every process cache
  cleared first;
* ``small-mixed`` — passes of a closed loop of one ``BatchEngine.run``
  per small system: fuzz-generator cases plus the paper's small rows;
* ``service-roundtrip`` — ``python -m repro serve`` driven by an
  open-loop HTTP client at a fixed rate, ~30% of requests resubmitting
  an already finished system.

Every run is bounded by a request count derived from ``--seconds``, so a
run sees the same mix however fast the machine is.  Request times are
reported at a reference host speed: each is divided by the slowdown a
fixed probe loop measured while it ran (:mod:`hostspeed`), because a
shared host's speed moves by up to 1.6x for minutes at a time.  The
in-process workloads synthesize every system once per pass and time
each system by its fastest pass (min-of-N).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs one pass (or the service loop)
untraced and then traced, and prints the per-layer metrics.  Every
result is checked by :mod:`check`.  The last stdout line is the JSON result; the line before
it is the run record (git SHA, interpreter, load, seed, request count).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import http.client
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from check import check_decomposition
from hostspeed import HostSpeed, child_seconds, probe_code
from tracing import LAYER_SPANS, SpanRecorder, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

#: Run sizes are given at ``--seconds`` = REFERENCE_SECONDS and scale
#: linearly with it.
REFERENCE_SECONDS = 20
#: Search knobs of the SG rows, as the paper-table benchmarks use them.
SG_ROWS: dict[str, int] = {
    "SG 4X2": 60, "SG 4X3": 40, "SG 5X2": 40, "SG 5X3": 30,
}
#: Passes over the SG rows (one pass takes 12-19 s on a 2-core box).
SG_PASSES = 2
PAPER_SMALL_ROWS: tuple[str, ...] = (
    "Table 14.1", "Table 14.2", "Section 14.3.1", "Quad", "Mibench",
    "MVCS", "Mixer",
)
#: Distinct small-mixed systems, and passes over them (~65 ms per request).
SMALL_MIXED_SYSTEMS = 150
SMALL_MIXED_PASSES = 3
#: Generator stream of the small-mixed and service systems.  Every run
#: synthesizes the same set, so a run's total work does not depend on the
#: seed; the seed sets the order, the resubmits and the check points.
CASE_STREAM = 0
#: Open-loop requests and arrival rate; capacity on a 2-core box is well
#: above the rate.  Each request also waits out part of the worker's
#: 0.1 s idle poll, a near-uniform wait whose median over 150 requests
#: still moved by up to 10% between runs.
SERVICE_REQUESTS = 250
SERVICE_RATE = 5.0
SERVICE_RESUBMIT_SHARE = 0.3
#: A resubmit repeats a system first sent at least this many requests earlier.
SERVICE_RESUBMIT_LAG = 8
SERVICE_POLL_SECONDS = 0.01
#: Wall-clock interval of the service client's host-speed probes.
SERVICE_PROBE_SECONDS = 0.05
TERMINAL_STATES = frozenset(
    {"done", "failed", "degraded", "cancelled", "dead_letter"}
)
#: Cold starts for setup_s before, between and after the passes (half
#: before and half after the service's open loop), so that no single
#: slow stretch of a shared machine sets the median.
SETUP_STARTS_PER_GAP = 3
SERVICE_SETUP_STARTS = 8
#: How long a child gets to drain after SIGTERM before it is killed.
STOP_SECONDS = 30.0
#: Abort (non-zero exit, no result) rather than overrun the run limit.
RUN_LIMIT_SECONDS = 170
#: A cold start of the engine, and ``repro serve``, each under the
#: child's own host-speed probes.
COLD_START_CODE = probe_code(
    "import repro\nrepro.BatchEngine(repro.RunConfig(workers=1))\n",
    "print('ready', *probes, flush=True)\n",
)
SERVE_CODE = probe_code(
    "import sys\nfrom repro.__main__ import main\n",
    "print('probes', *probes, flush=True)\nraise SystemExit(main(sys.argv[1:]))\n",
)
WORKLOADS = ("sg-cold", "small-mixed", "service-roundtrip")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, as ``statistics.quantiles(n=100)`` cuts it."""
    return statistics.quantiles(values, n=100)[q - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p90 with at least 10 samples beyond it; with too
    few samples for either, the mean of the slowest quarter, which is
    steadier than the single slowest sample."""
    n = len(values)
    for q in (99, 90):
        if n - math.ceil(n * q / 100) >= 10:
            return f"p{q}", percentile(values, q)
    slowest = sorted(values)[-max(1, n // 4):]
    return "top25-mean", statistics.fmean(slowest)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    name: str
    system: Any               # repro.PolySystem
    data: dict[str, Any]      # its JSON form, as sent over HTTP and checked
    options: Any = None       # repro.SynthesisOptions or None
    resubmit_of: int | None = None


def run_size(workload: str, seconds: int) -> tuple[int, int]:
    """(requests per pass, passes) of a run at ``--seconds``."""
    scale = seconds / REFERENCE_SECONDS
    if workload == "sg-cold":
        return len(SG_ROWS), max(1, round(SG_PASSES * scale))
    if workload == "small-mixed":
        systems = max(len(PAPER_SMALL_ROWS) + 1, round(SMALL_MIXED_SYSTEMS * scale))
        return systems, SMALL_MIXED_PASSES
    return max(5 * SERVICE_RESUBMIT_LAG, round(SERVICE_REQUESTS * scale)), 1


def _content_key(data: dict[str, Any]) -> str:
    return json.dumps([data["polys"], data["signature"]], sort_keys=True)


def _generated(count: int, taken: set[str]) -> list[Request]:
    """The first ``count`` systems of the fuzz generator's CASE_STREAM,
    round-robin over its shapes, all with distinct content (hence
    distinct engine cache keys)."""
    from repro.fuzz.generator import generate_cases
    from repro.serialize import system_to_dict

    out: list[Request] = []
    for case in generate_cases(CASE_STREAM, 100 * count + 100):
        data = system_to_dict(case.system)
        key = _content_key(data)
        if key in taken:
            continue
        taken.add(key)
        out.append(Request(f"{case.shape}#{case.index}", case.system, data))
        if len(out) == count:
            return out
    raise RuntimeError("generator produced too few distinct systems")


def make_inputs(workload: str, seed: int, count: int,
                passes: int = 1) -> list[list[Request]]:
    """``passes`` lists of ``count`` requests.  The in-process workloads
    send the same systems in every pass, each pass in its own seeded
    order; the service runs one pass."""
    from repro import SynthesisOptions
    from repro.serialize import system_to_dict
    from repro.suite import get_system

    rng = random.Random(f"{workload}:{seed}")

    def named(name: str, options: Any = None) -> Request:
        system = get_system(name)
        return Request(name, system, system_to_dict(system), options)

    def shuffled(requests: list[Request]) -> list[list[Request]]:
        return [rng.sample(requests, len(requests)) for _ in range(passes)]

    if workload == "sg-cold":
        return shuffled([
            named(row, SynthesisOptions(descent_budget=budget))
            for row, budget in SG_ROWS.items()
        ])
    if workload == "small-mixed":
        requests = [named(row) for row in PAPER_SMALL_ROWS]
        taken = {_content_key(r.data) for r in requests}
        return shuffled(requests + _generated(count - len(requests), taken))
    resubmits = set(rng.sample(
        range(2 * SERVICE_RESUBMIT_LAG, count),
        round(count * SERVICE_RESUBMIT_SHARE),
    ))
    fresh_systems = _generated(count - len(resubmits), set())
    rng.shuffle(fresh_systems)
    fresh = iter(fresh_systems)
    requests: list[Request] = []
    for index in range(count):
        if index in resubmits:
            earlier = [
                i for i, r in enumerate(requests[: index - SERVICE_RESUBMIT_LAG])
                if r.resubmit_of is None
            ]
            source = rng.choice(earlier)
            original = requests[source]
            requests.append(Request(
                original.name, original.system, original.data,
                resubmit_of=source,
            ))
        else:
            requests.append(next(fresh))
    return [requests]


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The environment for ``repro`` child processes: the source tree on
    the path and no ``REPRO_*`` switches (tracing, fault injection)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _stop(proc: subprocess.Popen) -> bytes:
    """SIGTERM (the service drains on it), then SIGKILL if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=STOP_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or b""


def cold_start_engine() -> float:
    """Spawn → ``import repro`` + engine built, in a fresh interpreter, at
    the reference host speed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", COLD_START_CODE],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        _stop(proc)
    word, *probes = line.split()
    if word != b"ready":
        raise RuntimeError("cold start did not reach ready")
    return child_seconds(elapsed, [float(p) for p in probes])


class Server:
    """One ``repro serve`` subprocess on a fresh data directory."""

    def __init__(self, report_path: Path | None = None) -> None:
        self.data_dir = WORK / f"service-{os.getpid()}-{time.monotonic_ns()}"
        self.data_dir.mkdir(parents=True)
        serve = ["serve", "--data-dir", str(self.data_dir), "--port", "0"]
        if report_path is None:
            cmd = [sys.executable, "-c", SERVE_CODE, *serve]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   str(report_path), *serve]
        self.probes: list[float] = []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        try:
            self.host, self.port = self._announced_address()
            while self.request("GET", "/readyz")[0] != 200:
                time.sleep(0.005)
            self.ready_seconds = time.perf_counter() - self.started
        except BaseException:
            self.close()
            raise

    def _announced_address(self) -> tuple[str, int]:
        while True:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError("repro serve exited before listening")
            if line.startswith("probes "):
                self.probes = [float(p) for p in line.split()[1:]]
            if "listening on http://" in line:
                host, _, port = line.rsplit("http://", 1)[1].strip().rpartition(":")
                return host, int(port)

    def request(self, method: str, path: str,
                body: bytes | None = None) -> tuple[int, dict[str, Any]]:
        """One JSON exchange; ``(0, {})`` when the connection fails."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError):
            return 0, {}
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        _stop(self.proc)
        shutil.rmtree(self.data_dir, ignore_errors=True)


def cold_start_service() -> float:
    """Spawn → ``/readyz`` answers 200 (import + service boot + bind), at
    the reference host speed."""
    server = Server()
    server.close()
    return child_seconds(server.ready_seconds, server.probes)


def cold_starts(workload: str, count: int) -> list[float]:
    """``count`` cold starts' set-up times, in seconds."""
    start = cold_start_service if workload == "service-roundtrip" else cold_start_engine
    return [start() for _ in range(count)]


# ----------------------------------------------------------------------
# Workload runs
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    latencies: list[float]   # per system (fastest pass), or per request
    ok: list[bool]           # per request sent
    wrong: int               # results the correctness check rejected
    throughput_rps: float
    cpu_per_request_s: float
    cpu: float               # CPU seconds of the run (with the server's)
    slowdown: float          # the host's mean slowdown over the run
    peak_rss_mb: float
    area: float
    layers: dict[str, Any] | None = None
    caches: dict[str, int] = field(default_factory=dict)
    service: dict[str, float] = field(default_factory=dict)
    late: list[float] = field(default_factory=list)


def _score(requests: list[Request], decompositions: list[Any],
           payloads: list[dict[str, Any] | None], seed: int,
           with_area: bool) -> tuple[list[bool], int, float]:
    """Check every result independently; sum the area of each distinct
    system's result (a resubmit returns the same result again).

    Each failed request is priced at the area of the direct (unshared
    sum-of-products) implementation, so a request that stops returning a
    result raises the total instead of dropping out of it.
    """
    from repro.baselines import direct_decomposition
    from repro.cost import estimate_decomposition

    rng = random.Random(f"check:{seed}")
    ok: list[bool] = []
    wrong = 0
    area = 0.0
    priced: set[str] = set()
    for request, decomposition, payload in zip(requests, decompositions, payloads):
        passed = payload is not None and check_decomposition(
            request.data, payload, rng
        )
        if payload is not None and not passed:
            wrong += 1
        ok.append(passed)
        if not with_area:
            continue
        key = _content_key(request.data)
        if not passed:
            direct = direct_decomposition(request.system.polys)
            area += estimate_decomposition(direct, request.system.signature).area
        elif key not in priced:
            priced.add(key)
            area += estimate_decomposition(decomposition, request.system.signature).area
    return ok, wrong, area


def run_inprocess(workload: str, passes: list[list[Request]], seed: int,
                  recorder: Any = None,
                  between: Callable[[], None] | None = None) -> Outcome:
    """Closed loop, one client, pass after pass; ``between`` runs between
    two passes, outside the timing.

    A system's latency and CPU time are those of its fastest pass, each
    at the reference host speed.  The throughput is the systems whose
    every pass passed the check over the sum of those latencies.
    """
    from repro import BatchEngine, BatchJob, RunConfig, clear_caches
    from repro.api import synthesis_cache_sizes

    cold = workload == "sg-cold"
    speed = HostSpeed()
    timed: list[tuple[str, float, float, float]] = []
    sent: list[Request] = []
    results = []
    context = patched(recorder) if recorder is not None else contextlib.nullcontext()
    cpu_start = time.process_time()
    with context, speed.on_cpu_timer():
        for number, requests in enumerate(passes):
            if number and between is not None:
                between()
            for index, request in enumerate(requests):
                if cold or index == 0:
                    # Cold caches: sg-cold clears every process cache and
                    # builds a fresh engine (whose result cache would
                    # answer otherwise) before each request, small-mixed
                    # before each pass.
                    clear_caches()
                    gc.collect()
                    engine = BatchEngine(RunConfig(workers=1))
                job = BatchJob(system=request.system, options=request.options,
                               name=request.name)
                start, cpu = time.perf_counter(), time.process_time()
                report = engine.run([job])
                end, cpu = time.perf_counter(), time.process_time() - cpu
                timed.append((_content_key(request.data), start, end, cpu))
                sent.append(request)
                results.append(report.results[0])
    cpu = time.process_time() - cpu_start
    best_latency: dict[str, float] = {}
    best_cpu: dict[str, float] = {}
    for key, start, end, request_cpu in timed:
        slowdown = speed.slowdown(start, end)
        best_latency[key] = min((end - start) / slowdown,
                                best_latency.get(key, math.inf))
        best_cpu[key] = min(request_cpu / slowdown, best_cpu.get(key, math.inf))
    if recorder is not None:
        recorder.write_spans(str(WORK / f"spans-{workload}.jsonl"))
    payloads = [
        json.loads(r.payload)["decomposition"] if r.ok else None for r in results
    ]
    ok, wrong, area = _score(
        sent, [r.decomposition for r in results], payloads, seed,
        with_area=recorder is None,
    )
    failing = {_content_key(r.data) for r, passed in zip(sent, ok) if not passed}
    return Outcome(
        latencies=list(best_latency.values()), ok=ok, wrong=wrong,
        throughput_rps=(len(best_latency) - len(failing)) / sum(best_latency.values()),
        cpu_per_request_s=statistics.fmean(best_cpu.values()), cpu=cpu,
        slowdown=speed.mean_slowdown(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        area=area,
        layers=recorder.report() if recorder is not None else None,
        caches=synthesis_cache_sizes(),
    )


def run_service(requests: list[Request], seed: int, traced: bool) -> Outcome:
    """Open loop at SERVICE_RATE; latency runs from each request's due
    time to its fetched result.

    A request's execution (leased → done in its job history) is taken at
    the reference host speed, from the probes the client takes every
    SERVICE_PROBE_SECONDS; its waits (queue, the worker's idle poll,
    HTTP, the client's poll) are taken as measured, since most of them
    do not depend on the host's speed.
    """
    from repro.serialize import decomposition_from_dict

    report_path = WORK / "spans-service-roundtrip.json" if traced else None
    server = Server(report_path)
    count = len(requests)
    finished = [math.nan] * count
    executions: list[tuple[float, float] | None] = [None] * count
    speed = HostSpeed()
    wall_offset = time.time() - time.perf_counter()
    payloads: list[dict[str, Any] | None] = [None] * count
    submit_seconds: list[float] = []
    queue_waits: list[float] = []
    late: list[float] = []
    dedup = 0
    bodies = [
        json.dumps({"system": r.data, "method": "proposed",
                    "tenant": "bench", "label": r.name}).encode()
        for r in requests
    ]
    try:
        server_cpu_start = server.cpu_seconds()
        cpu_start = time.process_time()
        begin = time.perf_counter() + 0.05
        due = [begin + i / SERVICE_RATE for i in range(count)]
        pending: list[tuple[str, int]] = []

        def finish(index: int, job: dict[str, Any]) -> None:
            status, body = server.request("GET", f"/jobs/{job['job_id']}/result")
            finished[index] = time.perf_counter()
            if status == 200 and body.get("state") in ("done", "degraded"):
                payloads[index] = (body.get("result") or {}).get("decomposition")
            if requests[index].resubmit_of is None:
                history = job.get("history", ())
                leased = [h["wall"] for h in history if h.get("state") == "leased"]
                done = [h["wall"] for h in history
                        if h.get("state") in ("done", "degraded")]
                if leased:
                    queue_waits.append(leased[0] - job["created_wall"])
                if leased and done:
                    executions[index] = (leased[-1] - wall_offset,
                                         done[-1] - wall_offset)

        sent = 0
        while sent < count or pending:
            now = time.perf_counter()
            if sent < count and now >= due[sent]:
                late.append(now - due[sent])
                status, body = server.request("POST", "/jobs", bodies[sent])
                submit_seconds.append(time.perf_counter() - now)
                if status in (200, 201):
                    job = body["job"]
                    dedup += not body.get("created", True)
                    if job["state"] in TERMINAL_STATES:
                        finish(sent, job)
                    else:
                        pending.append((job["job_id"], sent))
                else:
                    finished[sent] = time.perf_counter()
                sent += 1
                continue
            still: list[tuple[str, int]] = []
            for job_id, index in pending:
                status, body = server.request("GET", f"/jobs/{job_id}")
                if status == 200 and body["job"]["state"] in TERMINAL_STATES:
                    finish(index, body["job"])
                elif status == 200:
                    still.append((job_id, index))
                else:
                    finished[index] = time.perf_counter()
            pending = still
            if not speed.starts or now - speed.starts[-1] >= SERVICE_PROBE_SECONDS:
                speed.sample()
            wake = time.perf_counter() + SERVICE_POLL_SECONDS
            if sent < count:
                wake = min(wake, due[sent])
            time.sleep(max(0.0, wake - time.perf_counter()))
        wall = time.perf_counter() - begin
        cpu = time.process_time() - cpu_start + server.cpu_seconds() - server_cpu_start
        peak = server.peak_rss_mb()
        status, listing = server.request("GET", "/jobs")
        store_jobs = len(listing.get("jobs", ())) if status == 200 else 0
    finally:
        server.close()
    latencies = [end - start for start, end in zip(due, finished)]
    for index, execution in enumerate(executions):
        if execution is not None:
            seconds = execution[1] - execution[0]
            latencies[index] += seconds / speed.slowdown(*execution) - seconds
    decompositions = [
        decomposition_from_dict(p) if p is not None and not traced else None
        for p in payloads
    ]
    ok, wrong, area = _score(requests, decompositions, payloads, seed,
                             with_area=not traced)
    # Drift over fresh requests only: resubmits (none in the first
    # quarter) return at once and would pull the later quarters down.
    fresh = [lat for lat, r in zip(latencies, requests) if r.resubmit_of is None]
    quarter = max(1, len(fresh) // 4)
    service = {
        "submit_p50_s": statistics.median(submit_seconds),
        "queue_wait_p50_s": statistics.median(queue_waits) if queue_waits else 0.0,
        "dedup_ratio": dedup / count,
        "store_jobs": store_jobs,
        "latency_drift": (
            statistics.median(fresh[-quarter:]) / statistics.median(fresh[:quarter])
        ),
    }
    layers = caches = None
    if report_path is not None:
        data = json.loads(report_path.read_text())
        report_path.unlink()
        caches = data.pop("caches")
        layers = data
    return Outcome(
        latencies=latencies, ok=ok, wrong=wrong,
        throughput_rps=sum(ok) / wall,
        cpu_per_request_s=cpu / count / speed.mean_slowdown(), cpu=cpu,
        slowdown=speed.mean_slowdown(),
        peak_rss_mb=peak, area=area, layers=layers, caches=caches or {},
        service=service, late=late,
    )


def run_workload(workload: str, passes: list[list[Request]], seed: int,
                 traced: bool) -> Outcome:
    """One traced or untraced run for the per-layer metrics: the service
    loop, or the first pass."""
    if workload == "service-roundtrip":
        return run_service(passes[0], seed, traced)
    return run_inprocess(workload, passes[:1], seed,
                         SpanRecorder() if traced else None)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end_metrics(outcome: Outcome, setup_s: float) -> tuple[dict[str, float], str]:
    label, tail_value = tail(outcome.latencies)
    return {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(outcome.latencies),
        "latency_tail_s": tail_value,
        "throughput_rps": outcome.throughput_rps,
        "cpu_per_request_s": outcome.cpu_per_request_s,
        "area_total_ge": outcome.area,
        "peak_rss_mb": outcome.peak_rss_mb,
        "success_rate": sum(outcome.ok) / len(outcome.ok),
    }, label


CACHE_NAMES = (
    "best_expr_cache", "kernel_cache", "dag_interner", "packed_contexts",
    "rings_falling", "rings_modular",
)
SERVICE_LAYER = (
    "submit_p50_s", "queue_wait_p50_s", "dedup_ratio", "store_jobs",
    "latency_drift",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(traced: Outcome, untraced: Outcome) -> dict[str, float]:
    layers = traced.layers
    metrics: dict[str, float] = {}
    for phase, seconds in layers["phase_seconds"].items():
        metrics[f"core.{phase}_s"] = seconds
    totals = layers["layers"]
    for name in LAYER_SPANS:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    prov = layers["provenance"]
    metrics["search.combinations_scored"] = prov["combinations_scored"]
    metrics["search.memo_hit_ratio"] = _ratio(
        prov["memo_hits"], prov["memo_hits"] + prov["combinations_scored"]
    )
    metrics["search.finalists"] = prov["dag_finalists"]
    metrics["dag.intern_hit_ratio"] = _ratio(
        prov["dag_intern_hits"], prov["dag_intern_hits"] + prov["dag_nodes"]
    )
    engine = layers["engine"]
    metrics["engine.overhead_s"] = engine["seconds"] - engine["job_seconds"]
    metrics["engine.cache_hit_ratio"] = _ratio(engine["hits"], engine["jobs"])
    for name in CACHE_NAMES:
        metrics[f"cache.{name}_entries"] = traced.caches.get(name, 0)
    for name in SERVICE_LAYER:
        metrics[f"service.{name}"] = traced.service.get(name, 0.0)
    metrics["obs.trace_overhead_ratio"] = (
        (traced.cpu / traced.slowdown) / (untraced.cpu / untraced.slowdown)
    )
    metrics["bench.generator_late_p99_s"] = (
        percentile(traced.late, 99) if len(traced.late) > 1 else 0.0
    )
    return metrics



def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(metrics: dict[str, float], trace: bool) -> dict[str, dict[str, Any]]:
    """Attach each metric's declared unit; refuse undeclared or missing ones."""
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: extra {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def run_record(args: argparse.Namespace, requests: int,
               passes: int) -> dict[str, Any]:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "kind": "run-record",
        "git_sha": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": requests,
        "passes": passes,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _abort(_signum: int, _frame: Any) -> None:
    raise TimeoutError(f"run exceeded {RUN_LIMIT_SECONDS}s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: repro imported from outside {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _abort)
    signal.alarm(RUN_LIMIT_SECONDS)
    WORK.mkdir(exist_ok=True)
    count, passes = run_size(args.workload, args.seconds)
    requests = make_inputs(args.workload, args.seed, count, passes)
    record = run_record(args, count, 1 if args.trace else len(requests))
    steal_start, total_start = cpu_ticks()
    if args.trace:
        untraced = run_workload(args.workload, requests, args.seed, traced=False)
        traced = run_workload(args.workload, requests, args.seed, traced=True)
        metrics = per_layer_metrics(traced, untraced)
        runs = (untraced, traced)
    else:
        # The first start fills the bytecode cache, which users pay once.
        cold_starts(args.workload, 1)
        if args.workload == "service-roundtrip":
            starts = cold_starts(args.workload, SERVICE_SETUP_STARTS // 2)
            outcome = run_service(requests[0], args.seed, traced=False)
            starts += cold_starts(args.workload, SERVICE_SETUP_STARTS // 2)
        else:
            starts = []

            def set_up() -> None:
                starts.extend(cold_starts(args.workload, SETUP_STARTS_PER_GAP))

            set_up()
            outcome = run_inprocess(args.workload, requests, args.seed,
                                    between=set_up)
            set_up()
        record["setup_starts"] = len(starts)
        setup_s = statistics.median(starts)
        metrics, record["tail_percentile"] = end_to_end_metrics(outcome, setup_s)
        if len(outcome.late) > 1:
            record["generator_late_p99_s"] = percentile(outcome.late, 99)
        runs = (outcome,)
    steal_end, total_end = cpu_ticks()
    record["host_slowdown"] = statistics.fmean(run.slowdown for run in runs)
    record["cpu_steal_share"] = (steal_end - steal_start) / max(1, total_end - total_start)
    signal.alarm(0)
    attempted = sum(len(run.ok) for run in runs)
    result = {
        "correct": all(run.wrong == 0 for run in runs),
        "attempted": attempted,
        "failed": attempted - sum(sum(run.ok) for run in runs),
        "metrics": with_units(metrics, bool(args.trace)),
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

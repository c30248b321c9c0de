"""Self-tests of the benchmark.  Run: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from check import check_decomposition  # noqa: E402


def _synthesized(name: str) -> tuple[dict, dict]:
    from repro import BatchEngine, BatchJob, RunConfig
    from repro.serialize import system_to_dict
    from repro.suite import get_system

    system = get_system(name)
    [result] = BatchEngine(RunConfig(workers=1)).run([BatchJob(system=system)]).results
    assert result.ok
    return system_to_dict(system), json.loads(result.payload)["decomposition"]


def _first_const(node: dict) -> dict | None:
    if node["op"] == "const":
        return node
    children = node.get("operands", []) + ([node["base"]] if "base" in node else [])
    for child in children:
        found = _first_const(child)
        if found is not None:
            return found
    return None


def test_check_accepts_real_result_and_rejects_perturbed_coefficient():
    system, decomposition = _synthesized("Table 14.1")
    assert check_decomposition(system, decomposition, random.Random(1))
    perturbed = copy.deepcopy(decomposition)
    const = next(
        c for c in map(_first_const, perturbed["outputs"]) if c is not None
    )
    const["value"] += 1
    assert not check_decomposition(system, perturbed, random.Random(1))


def test_check_rejects_malformed_decompositions():
    system, decomposition = _synthesized("Table 14.1")
    rng = random.Random(1)
    assert not check_decomposition(system, None, rng)
    missing_output = dict(decomposition, outputs=decomposition["outputs"][:-1])
    assert not check_decomposition(system, missing_output, rng)
    cyclic = {"blocks": {"b": {"op": "block", "name": "b"}},
              "outputs": [{"op": "block", "name": "b"}] * len(system["polys"])}
    assert not check_decomposition(system, cyclic, rng)


def test_failed_request_raises_area_instead_of_dropping_out():
    from repro import BatchEngine, BatchJob, RunConfig
    from repro.serialize import system_to_dict
    from repro.suite import get_system

    system = get_system("Table 14.1")
    [result] = BatchEngine(RunConfig(workers=1)).run([BatchJob(system=system)]).results
    request = run.Request(name=system.name, system=system, data=system_to_dict(system))
    payload = json.loads(result.payload)["decomposition"]
    ok, wrong, area = run._score([request], [result.decomposition], [payload], 1, True)
    assert ok == [True] and wrong == 0 and area > 0
    ok, wrong, failed_area = run._score([request], [None], [None], 1, True)
    assert ok == [False] and wrong == 0 and failed_area > area


def test_patched_restores_every_name_even_on_error():
    originals = [
        (owner, attr, vars(tracing._owner(owner))[attr])
        for owner, attr, _ in tracing.TARGETS
    ]
    recorder = tracing.SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracing.patched(recorder):
            for owner, attr, original in originals:
                assert vars(tracing._owner(owner))[attr] is not original
            raise RuntimeError("boom")
    for owner, attr, original in originals:
        assert vars(tracing._owner(owner))[attr] is original


def test_self_time_subtracts_direct_children():
    recorder = tracing.SpanRecorder()
    recorder.spans = [
        ("outer", 0.0, 10.0, -1, "r"),
        ("inner", 1.0, 4.0, 0, "r"),
        ("inner", 5.0, 6.0, 0, "r"),
        ("leaf", 2.0, 3.0, 1, "r"),
    ]
    totals = recorder.layer_totals()
    assert totals["outer"] == {"calls": 1, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "self_s": 3.0}
    assert totals["leaf"] == {"calls": 1, "self_s": 1.0}


def test_percentile_agrees_with_statistics_quantiles():
    rng = random.Random(7)
    for n in (2, 10, 99, 100, 999, 1000, 1500):
        values = [rng.expovariate(1.0) for _ in range(n)]
        cuts = statistics.quantiles(values, n=100)
        for q in (50, 90, 99):
            assert run.percentile(values, q) == cuts[q - 1]


@pytest.mark.parametrize(
    "n, label",
    [(8, "top25-mean"), (99, "top25-mean"), (100, "p90"), (999, "p90"),
     (1000, "p99")],
)
def test_tail_needs_ten_samples_beyond_it(n, label):
    values = [float(i) for i in range(n)]
    got, value = run.tail(values)
    assert got == label
    if label == "top25-mean":
        assert value == statistics.fmean(values[-(n // 4):])
    else:
        assert sum(v > value for v in values) >= 10


def test_inputs_are_seeded_and_distinct():
    first = run.make_inputs("small-mixed", 3, 60, 2)
    again = run.make_inputs("small-mixed", 3, 60, 2)
    other = run.make_inputs("small-mixed", 4, 60, 2)
    keys = [[run._content_key(r.data) for r in each] for each in first]
    assert keys == [[run._content_key(r.data) for r in each] for each in again]
    assert keys != [[run._content_key(r.data) for r in each] for each in other]
    # Every pass sends the same 60 distinct systems, in its own order.
    assert len(set(keys[0])) == 60 and set(keys[0]) == set(keys[1])
    assert keys[0] != keys[1]
    [service] = run.make_inputs("service-roundtrip", 3, 100)
    resubmits = [i for i, r in enumerate(service) if r.resubmit_of is not None]
    assert len(resubmits) == 30
    for index in resubmits:
        source = service[index].resubmit_of
        assert source <= index - run.SERVICE_RESUBMIT_LAG
        assert service[source].resubmit_of is None


def test_slowdown_averages_the_probes_taken_during_a_request():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_PROBE_SECONDS
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    speed.seconds = [ref, ref, 2 * ref, 2 * ref, ref, ref]
    assert speed.slowdown(1.5, 3.5) == pytest.approx(2.0)
    # No probe inside: the nearest ones around it.
    assert speed.slowdown(2.2, 2.4) == pytest.approx(1.5)
    assert speed.slowdown(9.0, 9.5) == pytest.approx(1.0)
    assert speed.mean_slowdown() == pytest.approx(8 / 6)


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.mark.parametrize("workload", ["small-mixed", "service-roundtrip"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_printed_metric_is_declared_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace == "1" else "end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sg-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""

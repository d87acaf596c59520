"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/selftest.py

They run every workload at its seconds-long smoke size, show that a wrong
output is counted as failed, and show that tracing leaves `recovsys` as it
found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import CLASS_HOOKS, LAYERS, Tracer  # noqa: E402

WORKLOADS = sorted(metrics.HEAVIEST)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def smoke_pass(workload: str) -> dict:
    return worker.run_pass(workload, 7, smoke=True, traced=False, started=time.monotonic())


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(metrics.HEAVIEST)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    specs = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [spec[0] for spec in specs]
    assert all(m["unit"] == spec[1] for m, spec in zip(result["metrics"].values(), specs))


def test_wrong_capacity_counts_as_failed(monkeypatch):
    rs = worker.load_recovsys()
    exact = rs.systems.capacity
    monkeypatch.setattr(rs.systems, "capacity", lambda S: exact(S) + 1e-6)
    record = smoke_pass("construct")
    failed = {j["name"] for j in record["jobs"] if not j["ok"]}
    assert failed == {j["name"] for j in record["jobs"]} - {"report_bounds"}
    _, attempted, n_failed = run.summarize([record], [record], trace=False)
    assert n_failed == len(failed) and attempted == len(record["jobs"])


def test_warmup_pass_counts_its_jobs_not_its_times():
    record = smoke_pass("search")
    warmup = {**record, "warmup": True, "pass_s": 1e6, "jobs": [{**j, "ok": False} for j in record["jobs"]]}
    result, attempted, failed = run.summarize([warmup, record], [record], trace=False)
    assert result["pass_s"]["value"] == record["pass_s"]
    assert attempted == 2 * len(record["jobs"]) and failed == len(record["jobs"])


def test_times_are_scaled_by_the_reference_loop():
    ref = hostspeed.REF_LOOP_S
    assert hostspeed.at_reference_speed(3.0, ref) == 3.0
    assert hostspeed.at_reference_speed(3.0, 1.5 * ref, 2.5 * ref) == 1.5
    record = smoke_pass("storage")
    assert record["pass_s"] == sum(j["ref_s"] for j in record["jobs"])
    assert len(record["loop_s"]) == len(record["jobs"]) + 1


def test_wrong_gain_counts_as_failed(monkeypatch):
    rs = worker.load_recovsys()
    exact = rs.measures.delta_from_epsilon
    monkeypatch.setattr(rs.measures, "delta_from_epsilon", lambda *a: 1.01 * exact(*a))
    record = smoke_pass("measure")
    failed = sorted(j["name"] for j in record["jobs"] if not j["ok"])
    assert failed == ["epsilon_q4", "epsilon_q9"]


def test_wrong_periodic_count_counts_as_failed(monkeypatch):
    rs = worker.load_recovsys()
    exact = rs.storage.trace_power
    monkeypatch.setattr(rs.storage, "trace_power", lambda A, n: exact(A, n) + 1)
    record = smoke_pass("storage")
    assert not any(j["ok"] for j in record["jobs"] if j["name"].startswith("periodic_"))


def test_tracing_restores_every_attribute():
    rs = worker.load_recovsys()
    owners = [rs] + [getattr(rs, layer) for layer in LAYERS]
    owners += [getattr(getattr(rs, layer), cls) for layer, cls in CLASS_HOOKS]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install(rs)
    try:
        assert rs.graphs.adjacency is not before[1]["adjacency"]
        assert rs.systems.adjacency is rs.graphs.adjacency is rs.adjacency
        rs.truncated_debruijn_system(8)
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"systems.truncated_debruijn_system", "graphs.LabeledDigraph", "systems.verify_recoverable"} <= names
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys()
        assert all(now[k] is saved[k] for k in saved), owner


def test_same_seed_same_inputs(tmp_path):
    rs = worker.load_recovsys()

    def inputs(seed: int, sub: str):
        work = tmp_path / sub
        work.mkdir()
        jobs = workloads.build("measure", seed, True, rs, work)
        return [j.name for j in jobs], {p.name: p.read_text() for p in sorted(work.iterdir())}

    first, again, other = inputs(11, "a"), inputs(11, "b"), inputs(12, "c")
    assert first == again
    assert first[1] != other[1]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

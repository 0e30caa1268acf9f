"""Tests of the benchmark itself: registry consistency, a tiny-size smoke
run of every workload (untraced and traced), the append-only run log, the
refusal to run without a source tree, and the hygiene checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEFINITIONS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in REGISTRY["end_to_end"]]
LAYERS = [m["name"] for m in REGISTRY["per_layer"]]
WORKLOADS = [w["name"] for w in REGISTRY["workloads"]]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(tmp_path, workload, trace=0, seed=0, cwd=ROOT, script=None):
    command = [sys.executable, str(script or HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--smoke",
               "--records", str(tmp_path / "records.jsonl")]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=175)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _expand(name: str):
    kinds = _load("workload").LAYER_KINDS
    return [name.replace("<Kind>", kind) for kind in kinds] if "<Kind>" in name else [name]


def test_registry_is_documented_and_well_formed():
    assert set(REGISTRY) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert sorted(WORKLOADS) == sorted(_load("workload").WORKLOADS)
    assert sorted(WORKLOADS) == sorted(DEFINITIONS["workloads"])
    assert sorted(E2E) == sorted(DEFINITIONS["end_to_end"])
    documented = [n for name in DEFINITIONS["per_layer"] for n in _expand(name)]
    assert sorted(LAYERS) == sorted(documented)
    assert len(set(E2E + LAYERS)) == len(E2E) + len(LAYERS)
    bounds = {m["name"]: m["bound"] for m in REGISTRY["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert _load("run").PRIMARY in E2E


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(tmp_path, workload):
    result = _result(_bench(tmp_path, workload))
    assert sorted(result["metrics"]) == sorted(E2E)
    units = {m["name"]: m["unit"] for m in REGISTRY["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["train_mothernets", "serve_queue"])
def test_traced_smoke_run_prints_every_per_layer_metric(tmp_path, workload):
    _result(_bench(tmp_path, workload))
    log = tmp_path / "records.jsonl"
    first = log.read_text(encoding="utf-8")
    traced = _result(_bench(tmp_path, workload, trace=1))
    assert sorted(traced["metrics"]) == sorted(LAYERS)
    # Append-only: the traced record follows the untraced one, which it
    # reused as its overhead baseline instead of running the workload twice.
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and log.read_text(encoding="utf-8").startswith(first)
    record = json.loads(lines[1])
    assert record["trace"] is True and record["cpu_count"] == os.cpu_count()
    assert {"numpy", "blas", "threads", "seed", "src_sha"} <= set(record)
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    assert values["nn.fit_busy_s"] > 0 and values["nn.fwd_s.Conv2D"] > 0
    assert values["failed_pct"] == 0
    if workload == "serve_queue":
        assert values["fleet.job_ms.mean"] > 0 and values["server.wire_ms.mean"] > 0
        assert values["swap.workers_respawned"] == 1


@pytest.mark.parametrize("handler_ms, fails", [(6.0, False), (12.0, True)])
def test_serving_hop_check_fails_on_a_negative_hop(tmp_path, handler_ms, fails):
    """The hops add up to the client mean by construction; the check that
    can fail is an inner layer measured slower than the one around it."""
    from types import SimpleNamespace

    workload = _load("workload")
    args = SimpleNamespace(seed=0, seconds=1, trace=0, smoke=True, work=tmp_path)
    ctx = workload.Context(args)
    samples = [SimpleNamespace(service_ms=10.0, latency_ms=10.0, lag_ms=0.0,
                               request=SimpleNamespace(rows=1)) for _ in range(4)]
    # Five observations per layer: the phase's four requests and the flush.
    after = {
        'repro_http_request_latency_seconds_count{path="/predict"}': 5.0,
        'repro_http_request_latency_seconds_sum{path="/predict"}': 5 * handler_ms / 1e3,
        "repro_fleet_job_latency_seconds_count": 5.0,
        "repro_fleet_job_latency_seconds_sum": 5 * 5.0 / 1e3,
        "repro_serve_request_latency_seconds_count": 5.0,
        "repro_serve_request_latency_seconds_sum": 5 * 4.0 / 1e3,
    }
    workload.serving_layers(ctx, SimpleNamespace(samples=samples), ({}, after),
                            {rows: 2.0 for rows in workload.ROW_SIZES})
    assert ctx.per_layer["server.wire_ms.mean"] == pytest.approx(10.0 - handler_ms)
    assert bool(ctx.violations) is fails
    if fails:
        assert "server.wire_ms.mean" in ctx.violations[0]


def test_refuses_to_run_without_a_source_tree(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench(tmp_path, WORKLOADS[0], cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_hygiene_check_kills_and_reports_survivors():
    run = _load("run")
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                               start_new_session=True)
    try:
        checker = run.Run.__new__(run.Run)
        checker.violations = []
        started = time.monotonic()
        checker.check_processes(sleeper.pid)
        assert sleeper.wait(timeout=10) == -signal.SIGKILL
        assert time.monotonic() - started < 15
        assert checker.violations and "survived" in checker.violations[0]
    finally:
        if sleeper.poll() is None:
            sleeper.kill()
            sleeper.wait()


def test_hygiene_check_removes_leaked_shared_memory():
    run = _load("run")
    before = run.shm_entries()
    leaked = Path("/dev/shm") / f"perfbench-test-{os.getpid()}"
    leaked.write_bytes(b"x")
    checker = run.Run.__new__(run.Run)
    checker.violations = []
    checker.check_shm(before)
    assert not leaked.exists()
    assert checker.violations and leaked.name in checker.violations[0]

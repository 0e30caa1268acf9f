"""End-to-end test of ``python -m repro serve``: ephemeral port, concurrent
HTTP clients, bitwise parity with EnsemblePredictor, clean SIGTERM exit."""

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsemblePredictor

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def server(saved_artifact):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--artifact",
            str(saved_artifact),
            "--port",
            "0",
            "--workers",
            "2",
            "--max-wait-ms",
            "1.0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        banner = json.loads(line)
        assert banner["event"] == "serving"
        import repro

        assert banner["version"] == repro.__version__
        assert banner["mode"] == "pool"
        yield proc, banner["url"]
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


def _post(url, payload, timeout=60):
    request = urllib.request.Request(
        url + "/predict",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def test_serve_round_trip_concurrent(server, saved_artifact, serial_result):
    _, url = server
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test

    with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
        health = json.loads(response.read())
    assert health["status"] == "ok"
    assert health["alive_workers"] == 2

    with urllib.request.urlopen(url + "/info", timeout=30) as response:
        info = json.loads(response.read())
    assert info["workers"] == 2
    assert info["num_members"] == len(reference.ensemble)
    assert info["mode"] == "pool"
    assert info["uptime_seconds"] > 0
    assert "p99" in info["request_latency_seconds"]

    results = []

    def client(i):
        batch = x[i * 3 : i * 3 + 4]
        out = _post(url, {"inputs": batch.tolist(), "proba": True})
        expected = reference.predict_proba(batch)
        # JSON carries exact float64 representations of the float32 values,
        # so equality (not approx) is the right check.
        results.append(np.array_equal(np.asarray(out["probabilities"]), expected))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(results) and len(results) == 12

    labels = _post(url, {"inputs": x[:10].tolist(), "method": "vote"})
    assert labels["predictions"] == reference.predict(x[:10], method="vote").tolist()


def test_serve_metrics_endpoint_exposes_prometheus_text(server):
    """GET /metrics must be valid Prometheus text exposition with the core
    serving series populated by the traffic the earlier tests generated."""
    _, url = server
    # Generate at least one request in case this test runs in isolation.
    _post(url, {"inputs": [[0.0] * 12]})
    request = urllib.request.Request(url + "/metrics")
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200
        content_type = response.headers.get("Content-Type", "")
        body = response.read().decode("utf-8")
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    lines = body.splitlines()
    assert 'repro_serve_requests_total{status="ok"}' in body
    assert "# TYPE repro_serve_request_latency_seconds histogram" in lines
    assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"}' in body
    assert "repro_serve_request_latency_seconds_count" in body
    assert "repro_serve_workers_alive 2" in lines
    assert "# TYPE repro_serve_worker_restarts_total counter" in lines
    assert "repro_http_requests_total" in body
    assert "repro_process_cpu_seconds_total" in body
    # Counters populated by real traffic, not just declared.
    ok_line = next(
        line for line in lines if line.startswith('repro_serve_requests_total{status="ok"}')
    )
    assert float(ok_line.rsplit(" ", 1)[1]) >= 1


def test_serve_rejects_malformed_requests(server):
    _, url = server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, {"inputs": [[1.0, 2.0]]})
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, {})
    assert excinfo.value.code == 400


def test_serve_healthz_degrades_and_recovers_after_worker_sigkill(server):
    """SIGKILL a pool worker through its advertised pid: /healthz must report
    'degraded' during the gap and return to 'ok' once the supervisor's
    respawned worker is warm; /metrics must count the restart.

    Runs last against the shared server — recovery restores full capacity.
    """
    import time

    _, url = server

    def get(path):
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return json.loads(response.read())

    info = get("/info")
    assert len(info["worker_pids"]) == 2
    os.kill(info["worker_pids"][0], signal.SIGKILL)

    def wait_status(value, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if get("/healthz")["status"] == value:
                return True
            time.sleep(0.05)
        return get("/healthz")["status"] == value

    assert wait_status("degraded", timeout=15.0)
    assert wait_status("ok", timeout=90.0)
    health = get("/healthz")
    assert health["alive_workers"] == 2
    assert health["restarts"] >= 1

    with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
        body = response.read().decode("utf-8")
    restarts = next(
        line
        for line in body.splitlines()
        if line.startswith("repro_serve_worker_restarts_total ")
    )
    assert float(restarts.rsplit(" ", 1)[1]) >= 1

    # The recovered pool still answers.
    out = _post(url, {"inputs": [[0.0] * 12], "proba": True})
    assert len(out["probabilities"]) == 1


def test_serve_shuts_down_cleanly_on_sigterm(saved_artifact):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--artifact",
            str(saved_artifact),
            "--port",
            "0",
            "--workers",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = json.loads(proc.stdout.readline())
    assert banner["event"] == "serving"
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"event": "stopped"}


@pytest.mark.parametrize(
    "command",
    [["serve", "--artifact", "a"], ["fleet-worker", "--broker", "h:1", "--artifact", "a"]],
)
def test_transport_flag_accepts_only_shm(command, capsys):
    """Shared memory is the only data plane: ``--transport shm`` is still
    accepted (existing scripts pass it), anything else is an argparse error."""
    from repro.__main__ import _build_parser

    parser = _build_parser()
    assert parser.parse_args(command + ["--transport", "shm"]).transport == "shm"
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(command + ["--transport=pickle"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err

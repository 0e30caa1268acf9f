"""Self-healing serving pool: worker death detection, respawn with bounded
backoff, health degradation and recovery, and no process / shared-memory
leaks across a crash-and-recover cycle."""

import json
import multiprocessing as mp
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.parallel import PoolPredictor


def _wait_for(predicate, timeout, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _running(pid: int) -> bool:
    """``pid`` exists and is not a zombie (an orphan's reaper may be slow)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _shm_entries() -> set:
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro-shm")}


def _assert_no_residue(processes):
    assert not set(processes) & set(mp.active_children())
    if sys.platform.startswith("linux"):
        assert [f for f in os.listdir("/dev/shm") if f.startswith("repro-shm")] == []


def test_sigkilled_worker_is_respawned_and_capacity_restored(
    saved_artifact, serial_result
):
    """SIGKILL one of two workers: healthz must degrade during the gap, the
    supervisor must respawn the worker, and full capacity must return — with
    predictions still bitwise identical to the single-process facade."""
    pool = PoolPredictor(
        saved_artifact,
        workers=2,
        max_wait_ms=1.0,
        restart_backoff=0.1,
        supervise_interval=0.05,
    )
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test
    try:
        assert pool.healthz()["status"] == "ok"
        np.testing.assert_array_equal(pool.predict_proba(x), reference.predict_proba(x))

        victim = pool._processes[0]
        victim.kill()
        victim.join(timeout=10)

        # The gap: below capacity until the respawned worker is warm.
        assert _wait_for(lambda: pool.healthz()["status"] == "degraded", timeout=10.0)
        degraded = pool.healthz()
        assert degraded["alive_workers"] == 1
        assert degraded["workers"] == 2

        # Recovery: supervisor respawns from the artifact dir and healthz
        # returns to ok once the new predictor is loaded.
        assert _wait_for(lambda: pool.healthz()["status"] == "ok", timeout=60.0)
        recovered = pool.healthz()
        assert recovered["alive_workers"] == 2
        assert recovered["restarts"] >= 1
        assert pool.info()["restarts"] >= 1
        new_pid = pool._processes[0].pid
        assert new_pid is not None and new_pid != victim.pid

        # The restored pool serves, and answers stay bitwise identical.
        np.testing.assert_array_equal(
            pool.predict_proba(x[:16]), reference.predict_proba(x[:16])
        )
    finally:
        processes = list(pool._processes)
        pool.close()
    assert all(not p.is_alive() for p in processes)
    _assert_no_residue(processes)


def test_single_worker_pool_survives_kill_and_serves_during_recovery(
    saved_artifact, serial_result
):
    """workers=1: the kill takes the pool to 'down'; a predict issued during
    the gap waits for the respawn (worker_wait) instead of failing, and the
    pool comes back to 'ok'."""
    pool = PoolPredictor(
        saved_artifact,
        workers=1,
        max_wait_ms=0.0,
        restart_backoff=0.1,
        supervise_interval=0.05,
        worker_wait=120.0,
    )
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test[:8]
    try:
        pool._processes[0].kill()
        pool._processes[0].join(timeout=10)
        assert _wait_for(lambda: pool.healthz()["status"] == "down", timeout=10.0)
        # Dispatch during the outage: held until the respawned worker loads.
        np.testing.assert_array_equal(pool.predict_proba(x), reference.predict_proba(x))
        assert _wait_for(lambda: pool.healthz()["status"] == "ok", timeout=60.0)
        assert pool.healthz()["restarts"] >= 1
    finally:
        processes = list(pool._processes)
        pool.close()
    _assert_no_residue(processes)


def test_restart_disabled_evicts_but_does_not_respawn(saved_artifact, serial_result):
    """restart_workers=False keeps the old capacity-loss semantics: the dead
    worker is evicted (degraded health) and never replaced."""
    pool = PoolPredictor(
        saved_artifact,
        workers=2,
        max_wait_ms=1.0,
        restart_workers=False,
        supervise_interval=0.05,
    )
    x = serial_result.dataset.x_test[:8]
    try:
        pool._processes[1].kill()
        pool._processes[1].join(timeout=10)
        assert _wait_for(lambda: pool.healthz()["status"] == "degraded", timeout=10.0)
        # Give a would-be respawn plenty of time, then confirm none happened.
        time.sleep(1.0)
        health = pool.healthz()
        assert health["status"] == "degraded"
        assert health["alive_workers"] == 1
        assert health["restarts"] == 0
        # The surviving worker keeps serving.
        assert pool.predict(x).shape == (8,)
    finally:
        processes = list(pool._processes)
        pool.close()
    _assert_no_residue(processes)


def test_repeated_kills_bounded_backoff_and_recovery(saved_artifact, serial_result):
    """Kill the same worker twice: the supervisor keeps respawning (backoff
    grows but stays bounded) and the pool ends at full capacity."""
    pool = PoolPredictor(
        saved_artifact,
        workers=2,
        max_wait_ms=1.0,
        restart_backoff=0.05,
        restart_backoff_max=0.2,
        supervise_interval=0.05,
    )
    try:
        for _ in range(2):
            pool._processes[0].kill()
            pool._processes[0].join(timeout=10)
            assert _wait_for(lambda: pool.healthz()["status"] == "ok", timeout=60.0)
        assert pool.healthz()["restarts"] >= 2
        x = serial_result.dataset.x_test[:4]
        assert pool.predict(x).shape == (4,)
    finally:
        processes = list(pool._processes)
        pool.close()
    _assert_no_residue(processes)


def test_backoff_schedule_is_bounded():
    """The per-attempt backoff doubles from restart_backoff and saturates at
    restart_backoff_max (the 'bounded restart backoff' contract)."""
    base, cap = 0.5, 30.0
    delays = [min(base * (2 ** attempt), cap) for attempt in range(12)]
    assert delays[0] == base
    assert all(later >= earlier for earlier, later in zip(delays, delays[1:]))
    assert delays[-1] == cap
    assert max(delays) <= cap


def test_pool_validation_of_supervisor_parameters(saved_artifact):
    with pytest.raises(ValueError):
        PoolPredictor(saved_artifact, restart_backoff=0.0)
    with pytest.raises(ValueError):
        PoolPredictor(saved_artifact, restart_backoff=2.0, restart_backoff_max=1.0)
    with pytest.raises(ValueError):
        PoolPredictor(saved_artifact, supervise_interval=0.0)


_POOL_OWNER = """
import json, sys, time
from repro.parallel import PoolPredictor

if __name__ == "__main__":
    pool = PoolPredictor(sys.argv[1], workers=2)
    print(json.dumps(pool.info()["worker_pids"]), flush=True)
    time.sleep(600)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc, /dev/shm")
def test_workers_exit_when_the_pool_owner_is_sigkilled(saved_artifact):
    """A SIGKILLed pool owner takes its workers with it.  A worker blocked on
    its request queue never sees EOF (it holds the pipe's write end too), so
    it waits on the parent's sentinel as well; once the workers are gone the
    owner's resource tracker exits and unlinks the orphaned arenas."""
    before = _shm_entries()
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    owner = subprocess.Popen(
        [sys.executable, "-c", _POOL_OWNER, str(saved_artifact)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        pids = json.loads(owner.stdout.readline())
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
    assert len(pids) == 2
    assert _wait_for(lambda: not any(_running(pid) for pid in pids), 10), pids
    assert _wait_for(lambda: not _shm_entries() - before, 10), _shm_entries() - before

"""Serving data plane: shared-memory arenas and one-off segments.

The contract: pool answers are **bitwise identical** to the single-process
``EnsemblePredictor`` — including requests larger than ``max_batch``
(multi-slot coalescing), requests larger than the whole arena and dispatches
that meet a full result ring (both carried in a one-off segment, never
split), and concurrent client threads — while only fixed-size descriptors
cross the worker queues.  Arena results come back as zero-copy views; one-off
results as owned copies, their segment unlinked at once.
"""

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.obs.metrics import get_registry
from repro.parallel import PoolPredictor
from repro.parallel.shm_transport import ShmArena, _RegionAllocator


def _counter(name: str, *labels: str) -> float:
    metric = get_registry().get(name)
    if metric is None:
        return 0.0
    if labels:
        metric = metric.labels(*labels)
    return metric.value


def _fallbacks() -> float:
    return _counter(
        "repro_serve_transport_fallbacks_total", "request_ring_full"
    ) + _counter("repro_serve_transport_fallbacks_total", "result_ring_full")


def _oneoff_segments() -> list:
    if not sys.platform.startswith("linux"):
        return []
    prefix = f"repro-shm-{os.getpid()}-oneoff-"
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


@pytest.fixture(scope="module")
def reference(saved_artifact):
    return EnsemblePredictor.load(saved_artifact)


def test_pool_matches_single_process_bitwise(
    saved_artifact, reference, serial_result, shm_sweep
):
    x = serial_result.dataset.x_test
    with PoolPredictor(saved_artifact, workers=2, max_wait_ms=1.0) as pool:
        np.testing.assert_array_equal(
            pool.predict_proba(x), reference.predict_proba(x)
        )
        np.testing.assert_array_equal(pool.predict(x), reference.predict(x))
        for method in ("average", "vote", "super_learner"):
            np.testing.assert_array_equal(
                pool.predict_proba(x[:9], method=method),
                reference.predict_proba(x[:9], method=method),
            )


def test_shm_handles_requests_larger_than_max_batch(
    saved_artifact, reference, serial_result, shm_sweep
):
    """A single request bigger than ``max_batch`` coalesces several slots'
    worth of contiguous arena bytes — still zero fallbacks, still bitwise."""
    fallbacks_before = _fallbacks()
    x = serial_result.dataset.x_test  # 64 rows >> max_batch=8
    with PoolPredictor(saved_artifact, workers=1, max_batch=8, arena_slots=16) as pool:
        np.testing.assert_array_equal(
            pool.predict_proba(x), reference.predict_proba(x)
        )
    assert _fallbacks() == fallbacks_before


def test_oversized_request_rides_a_one_off_segment(
    saved_artifact, reference, serial_result, shm_sweep
):
    """A request that cannot fit the whole arena is carried in a one-off
    segment sized for it — unsplit, counted, bitwise for every combination
    method, returned as an owned copy, and the segment unlinked at once."""
    x = serial_result.dataset.x_test  # 64 rows; arena sized for ~2
    with PoolPredictor(saved_artifact, workers=1, max_batch=2, arena_slots=1) as pool:
        for method in ("average", "vote", "super_learner"):
            before = _fallbacks()
            out = pool.predict_proba(x, method=method)
            np.testing.assert_array_equal(
                out, reference.predict_proba(x, method=method)
            )
            assert out.base is None  # copied out of the segment
            assert _fallbacks() == before + 1
            assert _oneoff_segments() == []
        # The arena itself was never touched.
        assert pool.info()["arenas"][0]["result_used_bytes"] == 0


def test_full_result_ring_from_held_views_still_answers_bitwise(
    saved_artifact, reference, serial_result, shm_sweep
):
    """Client-held result views pin their arena regions; once they fill the
    result ring the next request rides a one-off segment, bitwise, and the
    held views stay intact (nothing recycled underneath them)."""
    x = serial_result.dataset.x_test[:4]
    expected = reference.predict_proba(x)
    with PoolPredictor(saved_artifact, workers=1, max_batch=8, arena_slots=1) as pool:
        held = [pool.predict_proba(x)]
        stats = pool.info()["arenas"][0]
        region = stats["result_used_bytes"]
        while stats["result_capacity_bytes"] - stats["result_used_bytes"] >= region:
            held.append(pool.predict_proba(x))
            stats = pool.info()["arenas"][0]
        assert stats["exported_result_views"] == len(held)

        before = _fallbacks()
        out = pool.predict_proba(x)
        np.testing.assert_array_equal(out, expected)
        assert out.base is None
        assert _fallbacks() == before + 1
        for view in held:
            np.testing.assert_array_equal(view, expected)

        # Dropping the views frees the ring: back to zero-copy arena results.
        del held, view
        out = pool.predict_proba(x)
        np.testing.assert_array_equal(out, expected)
        assert out.base is not None


def test_crash_during_one_off_dispatch_fails_promptly_and_recovers(
    saved_artifact, reference, serial_result, monkeypatch, shm_sweep
):
    """SIGKILL the worker mid-write of a one-off dispatch: the request fails
    at death (not at its timeout), the death path unlinks the segment — no
    ``/dev/shm`` residue while the pool lives on — and the respawned worker
    answers the same oversized request bitwise."""
    monkeypatch.setenv("REPRO_FAULTS", "serve_shm_write_crash:times=1")
    x = serial_result.dataset.x_test  # 64 rows; arena sized for ~2
    with PoolPredictor(
        saved_artifact,
        workers=1,
        max_batch=2,
        arena_slots=1,
        restart_backoff=0.5,
        supervise_interval=0.05,
        request_timeout=120.0,
    ) as pool:
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="worker 0"):
            pool.predict_proba(x)
        assert time.monotonic() - start < 30
        monkeypatch.delenv("REPRO_FAULTS")
        assert _oneoff_segments() == []

        deadline = time.monotonic() + 60
        while pool.healthz()["status"] != "ok":
            if time.monotonic() > deadline:
                pytest.fail(f"pool never recovered: {pool.healthz()}")
            time.sleep(0.1)
        for method in ("average", "vote", "super_learner"):
            np.testing.assert_array_equal(
                pool.predict_proba(x, method=method),
                reference.predict_proba(x, method=method),
            )
        assert _oneoff_segments() == []
        assert pool.healthz()["restarts"] >= 1


def test_pool_under_concurrent_clients(
    saved_artifact, reference, serial_result, shm_sweep
):
    x = serial_result.dataset.x_test
    expected_all = reference.predict_proba(x)
    with PoolPredictor(saved_artifact, workers=2, max_wait_ms=1.0) as pool:

        def call(i):
            start = i % 40
            size = 1 + (i % 7)
            batch = x[start : start + size]
            out = pool.predict_proba(batch)
            return np.array_equal(out, expected_all[start : start + batch.shape[0]])

        with ThreadPoolExecutor(max_workers=8) as clients:
            results = list(clients.map(call, range(64)))
    assert all(results)


def test_mixed_arena_and_one_off_dispatches_under_concurrent_clients(
    saved_artifact, reference, serial_result, shm_sweep
):
    """More workers than cores and a tiny arena: concurrent clients of mixed
    sizes interleave arena and one-off dispatches through the shared
    dispatch/collect/supervise bookkeeping.  Every answer stays bitwise and
    no one-off segment outlives its reply."""
    x = serial_result.dataset.x_test
    expected_all = reference.predict_proba(x)
    fallbacks_before = _fallbacks()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PoolPredictor(
            saved_artifact, workers=3, max_batch=4, arena_slots=2, max_wait_ms=1.0
        ) as pool:

            def call(i):
                start = i % 24
                size = (1, 3, 17, 40)[i % 4]
                out = pool.predict_proba(x[start : start + size])
                return np.array_equal(out, expected_all[start : start + size])

            with ThreadPoolExecutor(max_workers=8) as clients:
                results = list(clients.map(call, range(96)))
            assert _oneoff_segments() == []
    finally:
        sys.setswitchinterval(interval)
    assert all(results)
    assert _fallbacks() > fallbacks_before


def test_shm_results_are_zero_copy_views(saved_artifact, serial_result, shm_sweep):
    """Arena results come back as zero-copy views of the arena (no extra
    copy); dropping a view releases its region."""
    x = serial_result.dataset.x_test[:4]
    with PoolPredictor(saved_artifact, workers=1) as pool:
        out = pool.predict_proba(x)
        assert out.base is not None  # a view of the arena's buffer
        stats = pool.info()["arenas"][0]
        assert stats["exported_result_views"] >= 1
        assert stats["result_used_bytes"] > 0
        # Dropping the view releases its region back to the arena.
        del out, stats
        deadline_stats = pool.info()["arenas"][0]
        assert deadline_stats["exported_result_views"] == 0
        assert deadline_stats["result_used_bytes"] == 0


def test_transport_bytes_counters_populated(
    saved_artifact, serial_result, shm_sweep
):
    """Both directions of ``repro_serve_transport_bytes_total`` move, and
    the descriptors crossing the queues are far smaller than the tensors
    they describe (the benchmark guards the exact ratio at batch 4096)."""
    x = serial_result.dataset.x_test
    before = (
        _counter("repro_serve_transport_bytes_total", "shm", "request"),
        _counter("repro_serve_transport_bytes_total", "shm", "response"),
    )
    with PoolPredictor(saved_artifact, workers=1) as pool:
        proba = pool.predict_proba(x)
        proba_nbytes = proba.nbytes
        del proba
    request = _counter("repro_serve_transport_bytes_total", "shm", "request") - before[0]
    response = (
        _counter("repro_serve_transport_bytes_total", "shm", "response") - before[1]
    )
    assert request > 0 and response > 0
    assert request < x.nbytes
    assert response < proba_nbytes


def test_info_reports_transport_and_arena_occupancy(saved_artifact, shm_sweep):
    with PoolPredictor(saved_artifact, workers=2) as pool:
        info = pool.info()
        assert info["transport"] == "shm"
        assert info["arena_slots"] == 4
        assert info["arena_bytes_per_worker"] > 0
        assert len(info["arenas"]) == 2
        for arena in info["arenas"]:
            assert arena["generation"] == 0
            assert arena["request_capacity_bytes"] > 0
            assert arena["inflight_dispatches"] == 0


def test_pool_rejects_bad_transport(saved_artifact):
    """Shared memory is the only data plane: there is no transport to pick."""
    with pytest.raises(TypeError, match="transport"):
        PoolPredictor(saved_artifact, transport="shm")
    with pytest.raises(ValueError, match="arena_slots"):
        PoolPredictor(saved_artifact, arena_slots=0)


# --------------------------------------------------------------------------
# allocator / arena unit coverage (no worker processes)
# --------------------------------------------------------------------------


def test_region_allocator_first_fit_coalesce_and_stale_free():
    alloc = _RegionAllocator(base=0, capacity=256)
    a = alloc.alloc(64)
    b = alloc.alloc(64)
    c = alloc.alloc(64)
    assert (a, b, c) == (0, 64, 128)
    assert alloc.alloc(128) is None  # only 64 left
    assert alloc.free(b)
    assert alloc.free(a)
    # Freed neighbours coalesced: a 128-byte region fits again at the front.
    assert alloc.alloc(128) == 0
    assert not alloc.free(999)  # stale offsets are ignored, not fatal
    assert alloc.free(c)
    assert alloc.used_bytes == 128
    assert alloc.inflight_regions == 1


def test_region_allocator_exhaustion_and_recovery_under_interleaved_frees():
    """Exhaust the arena with interleaved alloc/free orders: alloc must
    return None (one-off segment) exactly while nothing fits, and recover
    the moment enough contiguous space coalesces back."""
    alloc = _RegionAllocator(base=0, capacity=512)
    regions = [alloc.alloc(128) for _ in range(4)]
    assert regions == [0, 128, 256, 384]
    assert alloc.alloc(1) is None  # fully exhausted
    # Free the two interior regions in reverse order: 256 bytes free but the
    # hole is contiguous (128..384), so 256 fits and 384 does not.
    assert alloc.free(regions[2])
    assert alloc.free(regions[1])
    assert alloc.alloc(384) is None
    assert alloc.alloc(256) == 128
    assert alloc.alloc(1) is None  # exhausted again
    assert alloc.used_bytes == 512


def test_region_allocator_coalesces_out_of_order_releases():
    """Whatever order regions are released in — forward, backward, or
    inside-out — the free list must coalesce back to one full-capacity
    region that can satisfy a single maximal allocation."""
    import itertools

    for order in itertools.permutations(range(4)):
        alloc = _RegionAllocator(base=0, capacity=256)
        offsets = [alloc.alloc(64) for _ in range(4)]
        for index in order:
            assert alloc.free(offsets[index])
        assert alloc.inflight_regions == 0
        assert alloc.used_bytes == 0
        assert alloc.alloc(256) == 0, f"fragmented after free order {order}"


def test_region_allocator_nonzero_base_and_alignment_rounding():
    """Offsets honour the arena base and sub-alignment requests round up to
    the alignment quantum (so neighbouring regions never overlap)."""
    from repro.parallel.shm_transport import ALIGNMENT

    alloc = _RegionAllocator(base=1024, capacity=4 * ALIGNMENT)
    a = alloc.alloc(1)  # rounds up to one alignment quantum
    b = alloc.alloc(ALIGNMENT + 1)  # rounds up to two
    assert a == 1024
    assert b == 1024 + ALIGNMENT
    assert alloc.used_bytes == 3 * ALIGNMENT
    assert alloc.alloc(2 * ALIGNMENT) is None  # only one quantum left
    assert alloc.alloc(ALIGNMENT) == 1024 + 3 * ALIGNMENT
    assert alloc.free(b)
    assert alloc.alloc(2 * ALIGNMENT) == 1024 + ALIGNMENT


def test_region_allocator_double_free_is_ignored():
    alloc = _RegionAllocator(base=0, capacity=128)
    a = alloc.alloc(64)
    assert alloc.free(a)
    assert not alloc.free(a)  # second release of the same region: no-op
    # The double free must not have corrupted the free list.
    assert alloc.alloc(128) == 0
    assert alloc.used_bytes == 128


def test_arena_retire_unlinks_immediately_but_defers_close(shm_sweep):
    import os
    import sys

    arena = ShmArena(0, max_batch=4, feature_size=3, num_classes=2, slots=2)
    offset = arena.alloc_result(64)
    view = arena.take_result_view(offset, (2, 2), "float64")
    arena.retire()
    if sys.platform.startswith("linux"):
        # The name is gone from /dev/shm the moment retire() runs...
        assert arena.meta.name not in os.listdir("/dev/shm")
    # ...but the mapping stays usable while a client still holds a view.
    assert view.shape == (2, 2)
    del view
    # Allocations after retirement are refused (callers use a one-off segment).
    assert arena.alloc_request(16) is None
    assert arena.alloc_result(16) is None

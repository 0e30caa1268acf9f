"""Zero-copy request/response arenas: the serving pool's data plane.

Tensors never travel through the worker queues.  :class:`ShmArena` gives
each serving worker one POSIX shared-memory segment (created through the
:mod:`repro.parallel.shared_data` publish/attach machinery) laid out as two
regions::

    [0, request_bytes)                       request ring  (dispatcher writes)
    [request_bytes, request_bytes+result_bytes)  result ring (worker writes)

The dispatcher copies request rows **once** into the request region; the
worker maps the same segment, runs ``predict_proba`` directly on zero-copy
views of those rows, and writes the probabilities into a result region the
dispatcher reserved for it.  The queues carry only fixed-size descriptors
(request ids, offsets, shapes, dtypes) — a few hundred bytes regardless of
batch size.  A dispatch the arena cannot hold (ring momentarily full, result
views pinned by clients, or a request bigger than the whole arena) gets a
one-off segment of its own with the same layout and descriptors instead
(see :class:`~repro.parallel.serving.PoolPredictor`).

Single-producer / single-consumer, lock-free across processes
-------------------------------------------------------------

Each arena has exactly one writer per region on each side of the process
boundary: the dispatcher thread is the only writer of the request region and
the worker process is the only writer of the result region.  Cross-process
visibility is sequenced by the descriptor queues (a descriptor is enqueued
only after its bytes are fully written), so the shared memory itself needs no
locks — the worker never blocks the dispatcher and vice versa.  The small
parent-side *bookkeeping* (which byte ranges are in flight) is guarded by an
ordinary ``threading.Lock`` inside :class:`_RegionAllocator`; no worker ever
touches it, so a SIGKILLed worker cannot leave it held.

Crash semantics
---------------

A worker killed mid-slot-write corrupts nothing the parent trusts: the
descriptor for that dispatch never arrives, the supervisor fails the
in-flight futures on death, and the respawn path **retires** the whole arena
(unlinks the ``/dev/shm`` name immediately) and hands the successor a fresh
one — no allocator state survives into the new generation.  Result views
already delivered to clients keep the retired segment mapped until the last
view is garbage-collected; only then is the mapping closed (the name is long
gone, so the leak sweeps stay clean).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.shared_data import create_segment
from repro.utils.logging import get_logger

logger = get_logger("parallel.shm_transport")

#: Every region handed out is aligned to this many bytes so numpy views onto
#: the arena start on cache-line boundaries regardless of request dtype.
ALIGNMENT = 64

#: Worst-case element width the result reservation assumes (float64 — the
#: widest dtype the prediction paths produce).
RESULT_ITEMSIZE = 8


def _align(nbytes: int) -> int:
    return (int(nbytes) + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


def array_at(buf, offset: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Zero-copy ``np.ndarray`` over the bytes of ``buf`` at ``offset``."""
    return np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=buf, offset=offset)


def write_array(buf, offset: int, array: np.ndarray) -> None:
    """Copy ``array`` into the bytes of ``buf`` at ``offset`` — the single
    copy the data plane makes of request rows (dispatcher) and of
    probabilities (worker)."""
    np.copyto(array_at(buf, offset, array.shape, array.dtype), array, casting="no")


@dataclass(frozen=True)
class ArenaMeta:
    """Everything a worker needs to attach its arena (tiny and picklable)."""

    name: str
    request_bytes: int
    result_bytes: int
    generation: int


class _RegionAllocator:
    """First-fit free-list allocator over ``[base, base + capacity)``.

    Regions are allocated per *dispatch* (requests) or per *request*
    (results), so the call rate is low; a plain interval free list with
    neighbour coalescing is plenty.  Frees arrive from arbitrary threads
    (the collector, client-side view finalizers), hence the lock.
    """

    def __init__(self, base: int, capacity: int):
        self.base = int(base)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._free: List[Tuple[int, int]] = [(self.base, self.capacity)]
        self._allocated: Dict[int, int] = {}

    def alloc(self, nbytes: int) -> Optional[int]:
        """Reserve an aligned region; ``None`` when nothing fits (the caller
        moves that dispatch to a one-off segment)."""
        need = _align(max(1, nbytes))
        with self._lock:
            for index, (offset, size) in enumerate(self._free):
                if size < need:
                    continue
                if size == need:
                    self._free.pop(index)
                else:
                    self._free[index] = (offset + need, size - need)
                self._allocated[offset] = need
                return offset
        return None

    def free(self, offset: int) -> bool:
        """Release a region, coalescing with free neighbours.  Unknown
        offsets are ignored (stale descriptors from a pre-respawn worker
        generation must never corrupt the successor's book-keeping)."""
        with self._lock:
            size = self._allocated.pop(offset, None)
            if size is None:
                return False
            start, end = offset, offset + size
            merged: List[Tuple[int, int]] = []
            inserted = False
            for free_offset, free_size in self._free:
                if free_offset + free_size == start:
                    start = free_offset
                elif free_offset == end:
                    end = free_offset + free_size
                else:
                    if not inserted and free_offset > end:
                        merged.append((start, end - start))
                        inserted = True
                    merged.append((free_offset, free_size))
            if not inserted:
                merged.append((start, end - start))
            merged.sort()
            self._free = merged
            return True

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return sum(self._allocated.values())

    @property
    def inflight_regions(self) -> int:
        with self._lock:
            return len(self._allocated)


class ShmArena:
    """Parent-side handle of one worker's request/result arena.

    Sized at pool start from the dispatch envelope: ``slots`` concurrent
    dispatches of up to ``max_batch`` rows each.  A single oversized request
    (rows > ``max_batch``) simply allocates several slots' worth of
    contiguous bytes — multi-slot coalescing falls out of byte-granularity
    allocation for free.
    """

    def __init__(
        self,
        worker_id: int,
        max_batch: int,
        feature_size: int,
        num_classes: int,
        slots: int = 4,
        generation: int = 0,
        request_itemsize: int = 8,
    ):
        if slots < 1:
            raise ValueError("arena needs at least one slot")
        slot_request = _align(max_batch * feature_size * request_itemsize)
        slot_result = _align(max_batch * num_classes * RESULT_ITEMSIZE)
        # Per-request alignment padding can eat into a nominally exact fit;
        # one extra aligned unit per slot keeps "slots × max_batch rows"
        # honestly representable.
        self.request_bytes = slots * (slot_request + ALIGNMENT)
        self.result_bytes = slots * (slot_result + ALIGNMENT)
        self.worker_id = int(worker_id)
        self.slots = int(slots)
        self.generation = int(generation)
        self._segment = create_segment(
            self.request_bytes + self.result_bytes,
            tag=f"arena-w{worker_id}-g{generation}",
        )
        self._requests = _RegionAllocator(0, self.request_bytes)
        self._results = _RegionAllocator(self.request_bytes, self.result_bytes)
        self._lock = threading.Lock()
        self._exported_views = 0
        self._retired = False
        self._closed = False

    # ----------------------------------------------------------- descriptors
    @property
    def meta(self) -> ArenaMeta:
        return ArenaMeta(
            name=self._segment.name,
            request_bytes=self.request_bytes,
            result_bytes=self.result_bytes,
            generation=self.generation,
        )

    @property
    def buf(self) -> memoryview:
        """The arena's bytes (the dispatcher writes request rows here)."""
        return self._segment.buf

    @property
    def total_bytes(self) -> int:
        return self.request_bytes + self.result_bytes

    def stats(self) -> Dict[str, object]:
        """Occupancy snapshot for ``/info`` (and tests)."""
        with self._lock:
            exported = self._exported_views
        return {
            "generation": self.generation,
            "slots": self.slots,
            "total_bytes": self.total_bytes,
            "request_capacity_bytes": self.request_bytes,
            "request_used_bytes": self._requests.used_bytes,
            "result_capacity_bytes": self.result_bytes,
            "result_used_bytes": self._results.used_bytes,
            "inflight_dispatches": self._requests.inflight_regions,
            "exported_result_views": exported,
        }

    # ------------------------------------------------------------ dispatcher
    def alloc_request(self, nbytes: int) -> Optional[int]:
        return None if self._retired else self._requests.alloc(nbytes)

    def alloc_result(self, nbytes: int) -> Optional[int]:
        return None if self._retired else self._results.alloc(nbytes)

    def free_request(self, offset: int) -> bool:
        return self._requests.free(offset)

    def free_result(self, offset: int) -> bool:
        return self._results.free(offset)

    # -------------------------------------------------------------- collector
    def take_result_view(
        self, offset: int, shape: Tuple[int, ...], dtype: str
    ) -> np.ndarray:
        """Zero-copy view of a worker-written result region.

        The region stays reserved until the returned array is garbage
        collected (a ``weakref.finalize`` hook frees it), so the client can
        hold the probabilities as long as it likes without the ring
        recycling the bytes underneath it.
        """
        view = array_at(self._segment.buf, offset, shape, dtype)
        with self._lock:
            self._exported_views += 1
        weakref.finalize(view, self._release_result_region, offset)
        return view

    def _release_result_region(self, offset: int) -> None:
        self._results.free(offset)
        with self._lock:
            self._exported_views -= 1
            close_now = self._retired and self._exported_views == 0
        if close_now:
            self._close_segment()

    # -------------------------------------------------------------- lifecycle
    def retire(self) -> None:
        """Tear the arena down: unlink the ``/dev/shm`` name *now* (no leak
        regardless of what else happens), close the mapping as soon as the
        last exported result view is gone.  Idempotent."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            close_now = self._exported_views == 0
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        if close_now:
            self._close_segment()

    def _close_segment(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - a view resurfaced; the name
            # is already unlinked, so the worst case is a mapping that lives
            # until the exporting array dies.
            with self._lock:
                self._closed = False

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.retire()
        except Exception:
            pass

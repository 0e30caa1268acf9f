"""Worker-process side of the parallel engine (training *and* serving).

Everything here runs inside ``spawn``-started worker processes, so it is all
module-level (picklable by reference) and communicates exclusively through
the picklable :class:`MemberTask` / :class:`MemberOutcome` records plus the
shared-memory dataset attached at worker start-up.  The serving-pool worker
loop (:func:`_serving_worker_main`) lives here too: it answers request
descriptors from :class:`~repro.parallel.serving.PoolPredictor`, reading
request rows from — and writing probabilities into — shared memory: its
per-worker arena, or a one-off segment the pool created for a dispatch too
big for the arena.

A worker trains exactly the way the serial path does — same
:class:`~repro.nn.training.Trainer`, same seed derivations, same bootstrap
sampling against the (shared) training set — so a member trained by a worker
is bitwise identical to the member the serial loop would have produced,
provided the BLAS thread count matches (floating-point summation order inside
GEMM depends on it; the executor caps workers to one BLAS thread each by
default).  Because every input is derived from the task record alone, a task
*retried* on a different worker after a crash is also bitwise identical to a
fault-free first attempt.

Resilience contract with the executor:

* the worker runs a persistent loop over its private request queue (one
  task at a time, ``None`` ends the loop) and ships every message through
  its private result queue — queue locks are never shared across workers,
  so a SIGKILL mid-operation poisons only this worker's queues, which the
  executor replaces at respawn;
* a worker whose parent dies exits instead of blocking on its queue
  forever (see :func:`_next_request`), for training and serving alike;
* a daemon heartbeat thread emits ``("heartbeat", worker_id, None)`` every
  ``heartbeat_interval`` seconds so the executor can tell a *stopped*
  process (SIGSTOP, scheduler starvation) from a merely slow one; a worker
  wedged inside the training call keeps heartbeating, which is exactly why
  the executor additionally enforces per-task deadlines;
* the final :mod:`repro.obs` registry snapshot of each member fit travels
  back inside :class:`MemberOutcome`, so per-member training metrics survive
  worker exit (the registry is reset after each snapshot: snapshots are
  deltas, and the parent merges them without double counting);
* :func:`repro.faults.fire` injection points (``train`` point) sit directly
  around the member fit for chaos tests — free when ``REPRO_FAULTS`` is
  unset.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as thread_queue
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, List, Optional

from repro.faults import fire
from repro.parallel.shared_data import AttachedDataset, SharedArrayMeta
from repro.parallel.shm_transport import array_at, write_array
from repro.utils.parallel import apply_blas_thread_cap

# Populated once per worker by _init_worker; read by every _train_member call.
_ATTACHED: Optional[AttachedDataset] = None


@dataclass
class MemberTask:
    """One ensemble member to train, shipped parent -> worker.

    ``init_weights`` (when given) are installed over a ``seed``-initialised
    model — this is how hatched members travel: the parent hatches from the
    MotherNet and ships the resulting weight/state snapshot, the worker
    rebuilds the model (``Model.from_spec(spec, seed=init_seed)``) and
    restores the snapshot before fine-tuning.  ``bag_seed`` (when given) makes
    the worker draw the member's bootstrap sample from the shared training
    set, exactly as the serial path draws it in the parent.
    """

    name: str
    spec_json: str
    config: object  # TrainingConfig; typed loosely to keep this module import-light
    train_seed: int
    dtype: Optional[str] = None
    init_seed: int = 0
    init_weights: Optional[Dict[str, Dict[str, object]]] = None
    bag_seed: Optional[int] = None
    collect_phase_timings: bool = True


@dataclass
class MemberOutcome:
    """One trained member, shipped worker -> parent."""

    name: str
    state: Dict[str, object]  # packed model state (spec + dtype + weights)
    result: object  # TrainingResult
    seconds: float  # in-worker wall clock of the fit (per-member cost)
    samples_per_epoch: int
    parameters: int
    compute_phases: Dict[str, float] = field(default_factory=dict)
    # Delta snapshot of the worker's repro.obs registry covering this fit;
    # merged into the parent registry so per-member metrics outlive the
    # worker process.  None when metrics are disabled in the worker.
    metrics: Optional[Dict[str, Dict[str, object]]] = None
    attempt: int = 0  # which attempt produced this outcome (0 = first try)


def _init_worker(meta: Dict[str, SharedArrayMeta], blas_threads: int) -> None:
    """Cap BLAS threads and attach the shared dataset (idempotent)."""
    apply_blas_thread_cap(blas_threads)
    global _ATTACHED
    if _ATTACHED is None:
        _ATTACHED = AttachedDataset(meta)


def _train_member(task: MemberTask, attempt: int = 0) -> MemberOutcome:
    """Train one member against the shared dataset and return its outcome."""
    # Imports live here (not at module top) so the parent can enumerate tasks
    # without paying for the full nn stack, and so spawn start-up stays lean
    # until a task actually arrives.
    from repro.arch.serialization import spec_from_json
    from repro.data.sampling import bootstrap_sample
    from repro.nn.model import Model
    from repro.nn.serialization import pack_model_state
    from repro.nn.training import Trainer
    from repro.obs.metrics import get_registry
    from repro.utils.timing import capture_phase_timings

    if _ATTACHED is None:
        raise RuntimeError("worker used before _init_worker attached the dataset")
    x = _ATTACHED["x"]
    y = _ATTACHED["y"]

    spec = spec_from_json(task.spec_json)
    model = Model.from_spec(spec, seed=task.init_seed, dtype=task.dtype)
    if task.init_weights is not None:
        model.set_weights(task.init_weights)

    if task.bag_seed is not None:
        bag = bootstrap_sample(x, y, seed=task.bag_seed)
        x_fit, y_fit, samples = bag.x, bag.y, bag.size
    else:
        x_fit, y_fit, samples = x, y, int(x.shape[0])

    # Chaos-test injection point: fires "mid-member" — after the task is
    # accepted and the model is built, before any result can be produced.
    fire("train", member=task.name, attempt=attempt)

    start = time.perf_counter()
    if task.collect_phase_timings:
        with capture_phase_timings() as phases:
            result = Trainer(task.config).fit(model, x_fit, y_fit, seed=task.train_seed)
    else:
        phases = {}
        result = Trainer(task.config).fit(model, x_fit, y_fit, seed=task.train_seed)
    seconds = time.perf_counter() - start

    # Ship the registry delta for this fit and reset, so the next task on
    # this worker starts from zero and the parent never double-merges.
    registry = get_registry()
    if registry.enabled:
        metrics = registry.snapshot()
        registry.reset()
    else:
        metrics = None

    return MemberOutcome(
        name=task.name,
        state=pack_model_state(model),
        result=result,
        seconds=seconds,
        samples_per_epoch=samples,
        parameters=model.parameter_count(),
        compute_phases=dict(phases),
        metrics=metrics,
        attempt=attempt,
    )


def _next_request(request_queue, result_queue):
    """Block for the next item on this worker's request queue; ``None`` both
    for the shutdown sentinel and once the parent process has died.

    The worker's copy of the queue holds the pipe's write end too, so a
    SIGKILLed parent never shows up as EOF on ``get()``: a worker blocked
    there would outlive it, and with it the parent's resource tracker, which
    only unlinks the dead parent's shared-memory names once every process
    holding its pipe has exited.  Waiting on the parent's sentinel next to
    the queue's reader lets an orphaned worker exit instead.
    """
    parent = mp.parent_process()
    if parent is not None and parent.sentinel in _mp_wait(
        [request_queue._reader, parent.sentinel]
    ):
        result_queue.cancel_join_thread()  # nobody will read the replies
        return None
    return request_queue.get()


def _poll_results(result_queues, timeout: float) -> List[tuple]:
    """Drain whatever messages the per-worker result queues hold.

    Parent side of both pools.  Multiplexes over every queue's reader pipe
    with ``multiprocessing.connection.wait``; returns a (possibly empty)
    list of ``(kind, worker_id, payload)`` messages.  ``None`` entries
    (workers not started yet) are skipped, and queues swapped out by a
    concurrent respawn surface as closed readers and are skipped too — the
    next call picks up their replacements.
    """
    snapshot = {q._reader: q for q in list(result_queues) if q is not None}
    try:
        readable = _mp_wait(list(snapshot), timeout=timeout)
    except OSError:  # pragma: no cover - reader closed mid-wait (respawn)
        return []
    messages: List[tuple] = []
    for reader in readable:
        queue = snapshot[reader]
        while True:
            try:
                messages.append(queue.get_nowait())
            except thread_queue.Empty:
                break
            except (OSError, ValueError, EOFError):  # pragma: no cover
                break  # queue closed/poisoned; successor takes over
    return messages


def _answer(predictor, buf, entry: tuple, worker_id: int) -> tuple:
    """Run one request on its rows in ``buf`` and write the probabilities
    into its reserved result region; returns the reply descriptor."""
    request_id, offset, shape, dtype, method, result_offset, result_capacity = entry
    try:
        proba = predictor.predict_proba(
            array_at(buf, offset, shape, dtype), method=method
        )
        # Chaos-test injection point ("serve_shm_write"): die or wedge
        # mid-slot-write — the dispatcher must survive a result region that
        # never gets its descriptor.
        fire("serve_shm_write", worker=worker_id)
        if proba.nbytes > result_capacity:  # an itemsize above RESULT_ITEMSIZE
            raise ValueError(f"{proba.nbytes}-byte result overflows its reservation")
        write_array(buf, result_offset, proba)
        return (request_id, result_offset, tuple(proba.shape), str(proba.dtype), None)
    except Exception as exc:
        return (request_id, result_offset, None, None, f"{type(exc).__name__}: {exc}")


def _serving_worker_main(
    worker_id: int,
    artifact: str,
    method: str,
    batch_size: int,
    warm: bool,
    arena_meta,
    request_queue,
    result_queue,
) -> None:
    """Serving-pool worker: load the artifact once, answer request groups.

    Each queue item (besides the ``None`` shutdown sentinel) is a dispatch
    descriptor ``(segment, generation, request_region, entries)`` with one
    ``(request_id, offset, shape, dtype, method, result_offset,
    result_capacity)`` entry per request.  The rows live in this worker's
    arena (``arena_meta``) when ``segment`` is ``None``, otherwise in the
    one-off segment of that name, attached for this dispatch only.  The
    probabilities go into the reserved result regions; the reply is
    ``("result", worker_id, (segment, generation, request_region,
    replies))`` with one ``(request_id, result_offset, shape, dtype,
    error)`` per request.
    """
    arena = None
    try:
        from repro.api.predictor import EnsemblePredictor
        from repro.parallel.shared_data import attach_segment

        predictor = EnsemblePredictor.load(
            artifact, method=method, batch_size=batch_size, warm=warm
        )
        arena = attach_segment(arena_meta.name)
        result_queue.put(("ready", worker_id, None))
    except BaseException as exc:  # pragma: no cover - startup failure path
        result_queue.put(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    try:
        while True:
            item = _next_request(request_queue, result_queue)
            if item is None:
                break
            # Chaos-test injection point ("serve"): crash or wedge this worker
            # with a request group in flight — free when REPRO_FAULTS is unset.
            fire("serve", worker=worker_id)
            segment_name, generation, request_region, entries = item
            segment = arena if segment_name is None else attach_segment(segment_name)
            replies = [
                _answer(predictor, segment.buf, entry, worker_id) for entry in entries
            ]
            if segment is not arena:
                try:
                    segment.close()
                except BufferError:  # pragma: no cover - a view outlived its
                    pass  # request (error traceback); the parent owns the name
            result_queue.put(
                ("result", worker_id, (segment_name, generation, request_region, replies))
            )
    finally:
        if arena is not None:
            try:
                arena.close()
            except Exception:  # pragma: no cover - views torn down with us
                pass


def _heartbeat_loop(worker_id: int, result_queue, interval: float, stop: threading.Event) -> None:
    """Daemon thread: tell the parent this process is still scheduled."""
    while not stop.wait(interval):
        try:
            result_queue.put(("heartbeat", worker_id, None))
        except Exception:  # pragma: no cover - queue torn down at exit
            return


def _worker_main(
    worker_id: int,
    meta: Dict[str, SharedArrayMeta],
    blas_threads: int,
    heartbeat_interval: float,
    request_queue,
    result_queue,
) -> None:
    """Training-worker main loop (one process; see module docstring)."""
    try:
        _init_worker(meta, blas_threads)
    except BaseException as exc:  # pragma: no cover - startup failure path
        try:
            result_queue.put(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        finally:
            return
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, result_queue, heartbeat_interval, stop),
        name=f"repro-train-heartbeat-{worker_id}",
        daemon=True,
    )
    beat.start()
    try:
        while True:
            item = _next_request(request_queue, result_queue)
            if item is None:
                break
            task_index, attempt, task = item
            try:
                outcome = _train_member(task, attempt=attempt)
            except Exception as exc:
                result_queue.put(
                    ("error", worker_id, (task_index, attempt, f"{type(exc).__name__}: {exc}"))
                )
            else:
                result_queue.put(("result", worker_id, (task_index, attempt, outcome)))
    finally:
        stop.set()

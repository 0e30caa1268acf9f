"""Process-based parallel execution layer for training and serving.

Two halves share the same ``spawn``-safe multiprocessing substrate:

* **Training** — :class:`ParallelExecutor` fans independent ensemble-member
  fits out over a persistent worker pool.  The training set is published once
  through POSIX shared memory (:class:`SharedDataset`; workers get zero-copy
  ``np.ndarray`` views), every worker's BLAS pool is capped before its numpy
  import (:func:`repro.utils.parallel.blas_thread_limit`), and outcomes carry
  both per-member seconds and the batch's critical-path makespan.  Enabled
  end to end by ``TrainingConfig(workers=N)``; ``workers=1`` keeps the exact
  pre-existing serial code path.
* **Serving** — :class:`PoolPredictor` answers concurrent predict requests
  from N worker processes that each warm-load one ``EnsemblePredictor`` from
  a shared artifact directory, with request micro-batching, round-robin
  dispatch, and a self-healing supervisor (dead workers are evicted and
  respawned under bounded backoff; each worker owns private crash-isolated
  queues).  Exposed over HTTP by ``python -m repro serve``
  (:func:`repro.parallel.server.run_server`), including Prometheus
  ``GET /metrics`` and a degrading ``GET /healthz``.  There is one
  request/response data plane: tensors move through per-worker
  shared-memory arenas (:class:`ShmArena`), or a one-off segment for a
  dispatch the arena cannot hold, so the queues carry only fixed-size
  descriptors.
"""

from repro.parallel.executor import ParallelExecutor, train_members
from repro.parallel.shared_data import AttachedDataset, SharedArrayMeta, SharedDataset
from repro.parallel.shm_transport import ArenaMeta, ShmArena
from repro.parallel.worker import MemberOutcome, MemberTask
from repro.parallel.serving import PoolPredictor

__all__ = [
    "ParallelExecutor",
    "train_members",
    "SharedDataset",
    "AttachedDataset",
    "SharedArrayMeta",
    "ArenaMeta",
    "ShmArena",
    "MemberTask",
    "MemberOutcome",
    "PoolPredictor",
]

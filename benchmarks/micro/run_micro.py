"""Micro-benchmarks for the execution engine.

Measures the hot paths the figure benchmarks are built on — conv
forward/backward, dense, a full VGG training step, and batched ensemble
inference — comparing the *fast* engine (float32, BLAS GEMM, workspace
reuse, batched ensemble pass) against the *reference* seed path (float64,
``np.einsum``, per-member inference loop).  The two parallel-engine
benchmarks (``ensemble_train_parallel``, ``pool_predict``) instead compare
the multi-process path (``workers=4``) against the single-process one and
record the machine's usable ``cpu_count`` next to the ratio — parallel
speedup is physically bounded by the core count, so the number is only
meaningful together with it.  ``metrics_overhead`` measures the
observability tax: the same VGG fit with the ``repro.obs`` registry disabled
versus enabled (must stay under 2%).  Results are written as
machine-readable JSON so the performance trajectory can be tracked PR over
PR.

Usage::

    PYTHONPATH=src python benchmarks/micro/run_micro.py \
        [--benchmarks all|conv_forward,vgg_step,...] [--repeats 5] \
        [--output benchmarks/micro/BENCH_micro.json]

Each benchmark reports the median over ``--repeats`` timed runs (after one
untimed warm-up, which also pre-populates the workspace arenas — steady-state
behaviour is what training loops see).
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.arch import small_vgg_ensemble, vgg
from repro.core import Ensemble, EnsembleMember
from repro.nn import Model, SoftmaxCrossEntropy
from repro.nn.layers import Conv2D, Dense, ResidualUnit
from repro.nn.optimizers import SGD
from repro.utils.parallel import cpu_count

SCHEMA = "repro.bench.micro/v1"
DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_micro.json"


# ---------------------------------------------------------------------------
# Harness plumbing
# ---------------------------------------------------------------------------

def _median_seconds(fn: Callable[[], None], repeats: int) -> float:
    fn()  # warm-up: JIT-free but fills caches and workspace arenas
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(statistics.median(samples))


def set_conv_engine(model: Model, engine: str) -> None:
    """Switch every convolution of a model to the given execution engine."""
    for layer in model._sequence():
        if isinstance(layer, Conv2D):
            layer.engine = engine
        elif isinstance(layer, ResidualUnit):
            for sub in layer.sublayers():
                if isinstance(sub, Conv2D):
                    sub.engine = engine


def _reference_model(spec, seed: int = 0) -> Model:
    model = Model.from_spec(spec, seed=seed, dtype="float64")
    set_conv_engine(model, "einsum")
    return model


def _fast_model(spec, seed: int = 0) -> Model:
    return Model.from_spec(spec, seed=seed, dtype="float32")


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def bench_conv_forward(repeats: int) -> Dict:
    """Inference-mode forward of a mid-network convolution."""
    params = {"batch": 64, "in_channels": 32, "out_channels": 64, "kernel": 3, "hw": 16}
    rng = np.random.default_rng(0)
    x64 = rng.normal(size=(params["batch"], params["in_channels"], params["hw"], params["hw"]))
    x32 = x64.astype(np.float32)
    ref = Conv2D(32, 64, 3, seed=1, dtype="float64", engine="einsum")
    fast = Conv2D(32, 64, 3, seed=1, dtype="float32", engine="gemm")
    return {
        "params": params,
        "reference_seconds": _median_seconds(lambda: ref.forward(x64, training=False), repeats),
        "fast_seconds": _median_seconds(lambda: fast.forward(x32, training=False), repeats),
    }


def bench_conv_backward(repeats: int) -> Dict:
    """Training-mode forward + backward of the same convolution."""
    params = {"batch": 64, "in_channels": 32, "out_channels": 64, "kernel": 3, "hw": 16}
    rng = np.random.default_rng(0)
    x64 = rng.normal(size=(params["batch"], params["in_channels"], params["hw"], params["hw"]))
    x32 = x64.astype(np.float32)
    g64 = rng.normal(size=(params["batch"], params["out_channels"], params["hw"], params["hw"]))
    g32 = g64.astype(np.float32)
    ref = Conv2D(32, 64, 3, seed=1, dtype="float64", engine="einsum")
    fast = Conv2D(32, 64, 3, seed=1, dtype="float32", engine="gemm")

    def run_ref():
        ref.forward(x64, training=True)
        ref.backward(g64)

    def run_fast():
        fast.forward(x32, training=True)
        fast.backward(g32)

    return {
        "params": params,
        "reference_seconds": _median_seconds(run_ref, repeats),
        "fast_seconds": _median_seconds(run_fast, repeats),
    }


def bench_dense(repeats: int) -> Dict:
    """Training-mode forward + backward of a wide dense layer."""
    params = {"batch": 256, "in_features": 512, "out_features": 512}
    rng = np.random.default_rng(0)
    x64 = rng.normal(size=(params["batch"], params["in_features"]))
    x32 = x64.astype(np.float32)
    g64 = rng.normal(size=(params["batch"], params["out_features"]))
    g32 = g64.astype(np.float32)
    ref = Dense(512, 512, seed=1, dtype="float64")
    fast = Dense(512, 512, seed=1, dtype="float32")

    def run_ref():
        ref.forward(x64, training=True)
        ref.backward(g64)

    def run_fast():
        fast.forward(x32, training=True)
        fast.backward(g32)

    return {
        "params": params,
        "reference_seconds": _median_seconds(run_ref, repeats),
        "fast_seconds": _median_seconds(run_fast, repeats),
    }


def bench_vgg_step(repeats: int) -> Dict:
    """One full training step (forward, loss, backward, SGD update) of a
    scaled-down V16 on CIFAR-shaped inputs — the unit of work every
    training-time figure accumulates."""
    params = {"variant": "V16", "batch": 64, "input_shape": [3, 16, 16], "width_scale": 0.25}
    spec = vgg("V16", num_classes=10, input_shape=(3, 16, 16), width_scale=0.25)
    rng = np.random.default_rng(0)
    x64 = rng.normal(size=(params["batch"], 3, 16, 16))
    x32 = x64.astype(np.float32)
    y = rng.integers(0, 10, size=params["batch"])
    loss_fn = SoftmaxCrossEntropy()

    def make_step(model: Model, x: np.ndarray) -> Callable[[], None]:
        optimizer = SGD(learning_rate=0.01, momentum=0.9)

        def step():
            logits = model.forward(x, training=True)
            _, grad = loss_fn(logits, y)
            model.zero_grads()
            model.backward(grad)
            optimizer.step(model.iter_parameters())

        return step

    ref_step = make_step(_reference_model(spec), x64)
    fast_step = make_step(_fast_model(spec), x32)
    return {
        "params": params,
        "reference_seconds": _median_seconds(ref_step, repeats),
        "fast_seconds": _median_seconds(fast_step, repeats),
    }


def bench_ensemble_predict(repeats: int) -> Dict:
    """All-member probability tensor for a five-member VGG ensemble:
    batched single pass (fast) versus the per-member sweep (reference)."""
    params = {
        "members": 5,
        "samples": 256,
        "batch_size": 128,
        "input_shape": [3, 16, 16],
        "width_scale": 0.25,
    }
    specs = small_vgg_ensemble(num_classes=10, input_shape=(3, 16, 16), width_scale=0.25)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(params["samples"], 3, 16, 16))

    ref_members = [
        EnsembleMember(name=spec.name, model=_reference_model(spec, seed=i))
        for i, spec in enumerate(specs)
    ]
    fast_members = [
        EnsembleMember(name=spec.name, model=_fast_model(spec, seed=i))
        for i, spec in enumerate(specs)
    ]
    fast_ensemble = Ensemble(fast_members, num_classes=10)

    def run_ref():
        # The seed implementation: one independent sweep per member.
        np.stack(
            [m.model.predict_proba(x, batch_size=params["batch_size"]) for m in ref_members]
        )

    def run_fast():
        fast_ensemble.predict_proba_all(x, batch_size=params["batch_size"])

    return {
        "params": params,
        "reference_seconds": _median_seconds(run_ref, repeats),
        "fast_seconds": _median_seconds(run_fast, repeats),
    }


def bench_metrics_overhead(repeats: int) -> Dict:
    """Observability tax on the training loop: a short VGG fit with the
    process-wide metrics registry *disabled* (reference) versus *enabled*
    (fast).  The per-epoch gauge/counter updates must stay under 2% of the
    step time — ``speedup`` here is expected to sit at ~1.0, and the
    committed number is guarded by the tier-1 suite via
    ``overhead_fraction`` (enabled/disabled - 1).
    """
    params = {
        "variant": "V16",
        "train_samples": 128,
        "batch": 32,
        "input_shape": [3, 16, 16],
        "width_scale": 0.25,
        "epochs": 2,
    }
    from repro.nn.training import Trainer, TrainingConfig
    from repro.obs.metrics import get_registry

    spec = vgg("V16", num_classes=10, input_shape=(3, 16, 16), width_scale=0.25)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(params["train_samples"], 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, size=params["train_samples"])
    config = TrainingConfig(
        max_epochs=params["epochs"],
        min_epochs=params["epochs"],
        convergence_patience=params["epochs"],
        batch_size=params["batch"],
        learning_rate=0.05,
    )
    registry = get_registry()

    def fit():
        model = _fast_model(spec, seed=1)
        Trainer(config).fit(model, x, y, seed=0)

    def run_disabled():
        registry.disable()
        try:
            fit()
        finally:
            registry.enable()

    entry = {
        "params": params,
        "reference_seconds": _median_seconds(run_disabled, repeats),
        "fast_seconds": _median_seconds(fit, repeats),
    }
    entry["overhead_fraction"] = (
        entry["fast_seconds"] / entry["reference_seconds"] - 1.0
    )
    return entry


def bench_ensemble_train_parallel(repeats: int) -> Dict:
    """Full-data training of a four-member MLP ensemble: serial loop
    (``workers=1``, the reference) versus the process-pool engine
    (``workers=4``).  The task is embarrassingly parallel, so on a machine
    with >= 4 usable cores the parallel path approaches a 4x speedup (pool
    start-up amortises over the members); on fewer cores the workers
    time-slice and the recorded ``cpu_count`` explains the resulting ratio.
    """
    workers = 4
    params = {
        "members": 4,
        "train_samples": 1024,
        "features": 12,
        "classes": 4,
        "base_width": 192,
        "max_epochs": 6,
        "batch_size": 32,
        "workers": workers,
        "cpu_count": cpu_count(),
    }
    from repro.arch.zoo import mlp_family
    from repro.core.baselines import FullDataTrainer
    from repro.data import load_dataset
    from repro.nn.training import TrainingConfig

    specs = mlp_family(
        count=params["members"],
        input_features=params["features"],
        num_classes=params["classes"],
        base_width=params["base_width"],
        seed=1,
    )
    dataset = load_dataset(
        "tabular",
        train_samples=params["train_samples"],
        test_samples=32,
        num_classes=params["classes"],
        num_features=params["features"],
        seed=3,
    )

    def config(n_workers: int) -> TrainingConfig:
        return TrainingConfig(
            max_epochs=params["max_epochs"],
            min_epochs=params["max_epochs"],
            convergence_patience=params["max_epochs"],
            batch_size=params["batch_size"],
            learning_rate=0.05,
            workers=n_workers,
        )

    def run_serial():
        FullDataTrainer(config(1), collect_phase_timings=False).train(specs, dataset, seed=0)

    def run_parallel():
        FullDataTrainer(config(workers), collect_phase_timings=False).train(
            specs, dataset, seed=0
        )

    return {
        "params": params,
        "reference_seconds": _median_seconds(run_serial, repeats),
        "fast_seconds": _median_seconds(run_parallel, repeats),
    }


def bench_pool_predict(repeats: int) -> Dict:
    """A stream of concurrent predict requests against a saved artifact:
    one single-process ``EnsemblePredictor`` answering sequentially (the
    reference) versus a four-worker ``PoolPredictor`` fed by eight client
    threads.  Worker start-up is excluded (both predictors are warm before
    timing); per-request IPC is included, which is the honest serving cost.
    """
    workers = 4
    params = {
        "members": 3,
        "requests": 24,
        "rows_per_request": 64,
        "workers": workers,
        "client_threads": 8,
        "cpu_count": cpu_count(),
    }
    from repro.api import EnsemblePredictor, run_experiment, save_ensemble_run
    from repro.parallel import PoolPredictor

    result = run_experiment(
        {
            "name": "bench-pool",
            "dataset": {
                "name": "tabular",
                "train_samples": 256,
                "test_samples": 2048,
                "num_classes": 4,
                "num_features": 16,
                "seed": 5,
            },
            "members": {
                "family": "mlp",
                "count": params["members"],
                "input_features": 16,
                "num_classes": 4,
                "base_width": 96,
                "seed": 1,
            },
            "approach": "full-data",
            "training": {"max_epochs": 2, "batch_size": 64, "learning_rate": 0.1},
            "seed": 0,
        }
    )
    artifact_root = Path(tempfile.mkdtemp(prefix="repro-bench-pool-"))
    artifact = artifact_root / "artifact"
    save_ensemble_run(result.run, artifact)
    rows = params["rows_per_request"]
    batches = [
        result.dataset.x_test[i * rows : (i + 1) * rows] for i in range(params["requests"])
    ]

    reference = EnsemblePredictor.load(artifact)
    pool = PoolPredictor(artifact, workers=workers, max_wait_ms=1.0)
    clients = ThreadPoolExecutor(max_workers=params["client_threads"])
    try:

        def run_reference():
            for batch in batches:
                reference.predict_proba(batch)

        def run_pool():
            list(clients.map(pool.predict_proba, batches))

        entry = {
            "params": params,
            "reference_seconds": _median_seconds(run_reference, repeats),
            "fast_seconds": _median_seconds(run_pool, repeats),
        }
    finally:
        clients.shutdown(wait=True)
        pool.close()
        shutil.rmtree(artifact_root, ignore_errors=True)
    return entry


def bench_pool_predict_large(repeats: int) -> Dict:
    """Large-batch serving data plane: the shared-memory pool (fast) versus
    in-process ``EnsemblePredictor`` (reference), one worker, one client —
    isolating what crossing the process boundary costs.  For each batch size
    the harness records p50/p99 end-to-end latency of both, and for the pool
    the bytes that actually crossed its queues (the
    ``repro_serve_transport_bytes_total`` counters: descriptors only, both
    directions) next to the tensor bytes the request moved through shared
    memory (rows in plus probabilities out).  The headline ``speedup`` is
    in-process p50 over pool p50 at batch 4096 (below 1x: the pool's IPC
    overhead for a lone client); ``bytes_ratio_4096`` is tensor bytes over
    descriptor bytes at batch 4096, which is deterministic (no timing
    involved) and guarded by the tier-1 suite.
    """
    batch_sizes = [256, 1024, 4096]
    params = {
        "members": 3,
        "features": 32,
        "classes": 8,
        "batch_sizes": batch_sizes,
        "workers": 1,
        "arena_slots": 4,
        "cpu_count": cpu_count(),
    }
    from repro.api import EnsemblePredictor, run_experiment, save_ensemble_run
    from repro.obs.metrics import get_registry
    from repro.parallel import PoolPredictor

    result = run_experiment(
        {
            "name": "bench-pool-large",
            "dataset": {
                "name": "tabular",
                "train_samples": 256,
                "test_samples": max(batch_sizes),
                "num_classes": params["classes"],
                "num_features": params["features"],
                "seed": 5,
            },
            "members": {
                "family": "mlp",
                "count": params["members"],
                "input_features": params["features"],
                "num_classes": params["classes"],
                "base_width": 64,
                "seed": 1,
            },
            "approach": "full-data",
            "training": {"max_epochs": 1, "batch_size": 64, "learning_rate": 0.1},
            "seed": 0,
        }
    )
    artifact_root = Path(tempfile.mkdtemp(prefix="repro-bench-pool-large-"))
    artifact = artifact_root / "artifact"
    save_ensemble_run(result.run, artifact)
    x_full = result.dataset.x_test

    registry = get_registry()

    def descriptor_bytes() -> float:
        metric = registry.get("repro_serve_transport_bytes_total")
        if metric is None:
            return 0.0
        return metric.labels("shm", "request").value + metric.labels("shm", "response").value

    iterations = max(repeats, 10)  # p99 needs more than a handful of samples

    def latency(predict, x) -> Dict[str, float]:
        samples: List[float] = []
        for _ in range(iterations):
            start = time.perf_counter()
            predict(x)
            samples.append(time.perf_counter() - start)
        return {
            "p50_seconds": float(np.percentile(samples, 50)),
            "p99_seconds": float(np.percentile(samples, 99)),
        }

    reference = EnsemblePredictor.load(artifact)
    in_process: Dict[str, Dict] = {}
    pool_stats: Dict[str, Dict] = {}
    try:
        pool = PoolPredictor(
            artifact,
            workers=1,
            max_batch=max(batch_sizes),
            arena_slots=params["arena_slots"],
            max_wait_ms=0.0,
        )
        try:
            for batch in batch_sizes:
                x = x_full[:batch]
                # Warm-up (arena pages, worker and in-process caches).
                tensor_bytes = x.nbytes + pool.predict_proba(x).nbytes
                reference.predict_proba(x)
                in_process[str(batch)] = latency(reference.predict_proba, x)
                bytes_before = descriptor_bytes()
                stats = latency(pool.predict_proba, x)
                stats["bytes_per_request"] = (
                    descriptor_bytes() - bytes_before
                ) / iterations
                stats["tensor_bytes_per_request"] = tensor_bytes
                pool_stats[str(batch)] = stats
        finally:
            pool.close()
    finally:
        shutil.rmtree(artifact_root, ignore_errors=True)

    large = str(max(batch_sizes))
    return {
        "params": params,
        "iterations": iterations,
        "pool": pool_stats,
        "in_process": in_process,
        "reference_seconds": in_process[large]["p50_seconds"],
        "fast_seconds": pool_stats[large]["p50_seconds"],
        "bytes_ratio_4096": (
            pool_stats[large]["tensor_bytes_per_request"]
            / pool_stats[large]["bytes_per_request"]
        ),
    }


def bench_hot_swap(repeats: int) -> Dict:
    """Serving-latency cost of a zero-downtime generation hot-swap.

    A two-worker shm pool serves a steady client loop while
    ``PoolPredictor.swap()`` rolls both workers onto a freshly-promoted
    generation.  Reports client-observed p50/p99 in steady state
    (``fast_seconds`` = steady p99) and inside the swap window
    (``reference_seconds`` = swap-window p99), so the harness's ``speedup``
    reads as the p99 degradation factor *during* a swap (~1x means swaps
    are latency-invisible), plus the swap makespan (drain + respawn + warm
    for all workers).  Latency during a roll is bounded by one worker's
    respawn+warm time slice, so ``cpu_count`` is recorded with the result.
    """
    from repro.api import run_experiment, save_ensemble_run
    from repro.core.artifact_store import ArtifactStore
    from repro.parallel import PoolPredictor

    params = {
        "members": 3,
        "features": 32,
        "classes": 8,
        "batch": 64,
        "workers": 2,
        "cpu_count": cpu_count(),
    }
    result = run_experiment(
        {
            "name": "bench-hot-swap",
            "dataset": {
                "name": "tabular",
                "train_samples": 256,
                "test_samples": 256,
                "num_classes": params["classes"],
                "num_features": params["features"],
                "seed": 5,
            },
            "members": {
                "family": "mlp",
                "count": params["members"],
                "input_features": params["features"],
                "num_classes": params["classes"],
                "base_width": 64,
                "seed": 1,
            },
            "approach": "full-data",
            "training": {"max_epochs": 1, "batch_size": 64, "learning_rate": 0.1},
            "seed": 0,
        }
    )
    store_root = Path(tempfile.mkdtemp(prefix="repro-bench-hot-swap-"))
    root = store_root / "store"
    save_ensemble_run(result.run, root)
    store = ArtifactStore.open(root)
    # The candidate generation: identical weights are fine — the roll cost
    # (drain, respawn, warm) is what's being measured, not the model delta.
    store.add_generation(result.run, parent_generation=0)
    x = result.dataset.x_test[: params["batch"]]

    iterations = max(repeats * 20, 100)  # p99 needs a real sample count
    pool = PoolPredictor(root, workers=params["workers"], max_wait_ms=0.0)
    try:
        pool.predict_proba(x)  # warm-up
        steady: List[float] = []
        for _ in range(iterations):
            start = time.perf_counter()
            pool.predict_proba(x)
            steady.append(time.perf_counter() - start)

        # Hammer from a client thread for the whole swap; keep only the
        # samples that started inside the swap window.
        samples: List[tuple] = []
        stop = False

        def hammer():
            while not stop:
                start = time.perf_counter()
                pool.predict_proba(x)
                samples.append((start, time.perf_counter() - start))

        store.promote(1)
        with ThreadPoolExecutor(max_workers=1) as client:
            future = client.submit(hammer)
            time.sleep(0.05)  # let the client reach steady fire
            swap_start = time.perf_counter()
            summary = pool.swap()
            makespan = time.perf_counter() - swap_start
            stop = True
            future.result()
        assert summary["workers_respawned"] == params["workers"], summary
        during = [
            elapsed
            for start, elapsed in samples
            if swap_start <= start <= swap_start + makespan
        ] or [elapsed for _, elapsed in samples]
    finally:
        pool.close()
        shutil.rmtree(store_root, ignore_errors=True)

    return {
        "params": params,
        "iterations": iterations,
        "steady_p50_seconds": float(np.percentile(steady, 50)),
        "steady_p99_seconds": float(np.percentile(steady, 99)),
        "swap_p50_seconds": float(np.percentile(during, 50)),
        "swap_p99_seconds": float(np.percentile(during, 99)),
        "swap_samples": len(during),
        "swap_makespan_seconds": makespan,
        "reference_seconds": float(np.percentile(during, 99)),
        "fast_seconds": float(np.percentile(steady, 99)),
    }


BENCHMARKS: Dict[str, Callable[[int], Dict]] = {
    "conv_forward": bench_conv_forward,
    "conv_backward": bench_conv_backward,
    "dense": bench_dense,
    "vgg_step": bench_vgg_step,
    "ensemble_predict": bench_ensemble_predict,
    "metrics_overhead": bench_metrics_overhead,
    "ensemble_train_parallel": bench_ensemble_train_parallel,
    "pool_predict": bench_pool_predict,
    "pool_predict_large": bench_pool_predict_large,
    "hot_swap": bench_hot_swap,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(names: List[str], repeats: int) -> Dict:
    results: Dict[str, Dict] = {}
    for name in names:
        entry = BENCHMARKS[name](repeats)
        entry["speedup"] = entry["reference_seconds"] / entry["fast_seconds"]
        results[name] = entry
        print(
            f"{name:>18}: reference {entry['reference_seconds'] * 1e3:8.2f} ms   "
            f"fast {entry['fast_seconds'] * 1e3:8.2f} ms   "
            f"speedup {entry['speedup']:5.2f}x"
        )
    return {
        "schema": SCHEMA,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repeats": repeats,
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": cpu_count(),
        "reference": "float64 + einsum conv + per-member inference loop (seed path); "
        "workers=1 single-process path for the parallel benchmarks",
        "fast": "float32 + GEMM conv with workspace reuse + batched ensemble inference; "
        "workers=4 process pool for the parallel benchmarks",
        "benchmarks": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks",
        default="all",
        help="comma-separated subset of: " + ", ".join(BENCHMARKS) + " (default: all)",
    )
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per benchmark")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT, help="JSON output path")
    parser.add_argument(
        "--merge",
        action="store_true",
        help="keep entries already in --output for benchmarks not run this time "
        "(re-measure one benchmark without clobbering the rest of the file)",
    )
    args = parser.parse_args()

    if args.benchmarks == "all":
        names = list(BENCHMARKS)
    else:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        unknown = sorted(set(names) - set(BENCHMARKS))
        if unknown:
            parser.error(f"unknown benchmarks: {unknown}; known: {sorted(BENCHMARKS)}")

    payload = run(names, max(1, args.repeats))
    if args.merge and args.output.exists():
        previous = json.loads(args.output.read_text()).get("benchmarks", {})
        for name, entry in previous.items():
            payload["benchmarks"].setdefault(name, entry)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()

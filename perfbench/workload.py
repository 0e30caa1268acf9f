"""One benchmark workload, run in its own process by ``perfbench/run.py``.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --out RESULT.json [--smoke]

The parent (``run.py``) sets the thread environment, checks process and
shared-memory hygiene after this process exits, and prints the result.  This
process generates the workload's inputs from ``--seed``, drives the system
through its public surface, checks every output and writes one JSON result:
end-to-end figures, per-layer figures (traced runs), attempted/failed counts
and any violations.

Workloads
---------
``train_mothernets``
    The ``repro train`` path (``run_experiment`` with a checkpoint journal,
    then ``save_ensemble_run``) on the five Table-1 VGG variants, repeated as
    often as ``--seconds`` buy.  The saved artifact is reloaded and must
    predict bitwise like the in-memory ensemble; between trainings the
    reloaded predictor answers the serving request mix in process.
``serve_queue``
    ``repro serve`` over HTTP in queue mode (one fleet consumer running a
    two-worker pool) on a two-generation artifact store: an open loop at a
    nominal rate, a closed-loop saturation phase, and hot-swaps between the
    generations under nominal load.  Every answer is compared with
    in-process ``EnsemblePredictor.predict_proba`` of generation 0 or 1.

Definitions of every figure are in ``perfbench/metrics.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402  (the benchmark's own load generator)

IMAGE_SHAPE = (3, 8, 8)
ROW_SIZES = (1, 8, 64)
ROW_PROBABILITIES = (0.7, 0.2, 0.1)
#: Distinct pre-encoded bodies per request size.
BODIES_PER_SIZE = 16
#: Nominal offered load of the serving open loop, requests per second.  At
#: 20 req/s about half of the responses hit the server's ~40 ms delayed-ACK
#: stall, which puts the median on the boundary between the two modes and
#: makes it swing 11-45 ms from run to run; at 10 req/s about a tenth do.
NOMINAL_RATE = 10.0
#: The tail percentile reported per layer (``client.p95_ms``): at least 10
#: samples lie beyond it once the open loop holds 200 requests.
TAIL_PERCENTILE = 95
#: Requests in the closed-loop saturation phase.
SATURATION_REQUESTS = 150
#: Hot-swap targets, each posted ``SWAP_GAP_S`` after the previous one
#: returned, under nominal load.
SWAP_TARGETS = (1, 0, 1)
SWAP_GAP_S = 0.3
#: In-process requests answered by the reloaded predictor (train workload),
#: paced at INPROCESS_RATE so the samples span many seconds of the run: the
#: shared benchmark box has slow spells of a few seconds, and a median over
#: one short burst of calls would report whichever spell it fell in.
INPROCESS_REQUESTS = 800
INPROCESS_RATE = 100.0
#: Every this many in-process calls the artifact is reloaded, timed (train
#: workload).
RELOAD_EVERY = 100
#: Every this many in-process calls the data set is regenerated, timed: its
#: median is the train workload's ``setup_s``.  One generation takes ~55 ms
#: and the shared box has slow spells of about a second, so the samples are
#: spread densely over the in-process phases instead of taken in one block.
REGENERATE_EVERY = 20
#: The reloaded artifact's ensemble-average test error must stay below this
#: (chance is 90%), or the trained ensemble is broken.
MAX_TEST_ERROR_PCT = 50.0
SETUP_REPEATS = 5
#: Seconds one fig-5 training takes on the 2-core benchmark box; a run
#: repeats the training as many whole times as its --seconds buy at that
#: rate.
TRAINING_ESTIMATE_S = 12.0
#: Data set (train, test samples) of the serving generations, and their
#: epochs: generation 0 is set-up; generation 1 is the timed retrain.
SERVE_DATA = (1024, 256)
SERVE_EPOCHS = {0: 2, 1: 2}
#: Identical retrains of generation 1 whose median is ``train_s``, in traced
#: and untraced runs alike: one retrain of a few seconds reads whichever slow
#: spell of the shared box it fell in.
RETRAIN_REPEATS = 6
#: Longer than a fleet consumer's metrics shipping interval (1 s).
QUEUE_METRICS_FLUSH_S = 1.2
LAYER_KINDS = ("Conv2D", "BatchNorm", "ReLU", "MaxPool2D", "GlobalAveragePool2D", "Dense")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Context:
    def __init__(self, args: argparse.Namespace):
        self.seed = int(args.seed)
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.smoke = bool(args.smoke)
        self.work = Path(args.work)
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []
        self.notes: Dict[str, object] = {}
        if self.trace:
            import spans  # on PYTHONPATH with the trace hook in traced runs

            self.recorder = spans.ACTIVE
        else:
            self.recorder = None

    def span(self, name: str):
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    def violation(self, message: str) -> None:
        self.violations.append(message)
        print(f"VIOLATION: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- inputs


def make_dataset(seed: int, train: int, test: int):
    from repro.data import load_dataset

    return load_dataset(
        "cifar10", train_samples=train, test_samples=test, image_shape=IMAGE_SHAPE, seed=seed
    )


def experiment_spec(seed: int, dataset_size, max_epochs: int, member_fraction: float, workers: int):
    """The fig-5 configuration on the Table-1 VGG variants (width 0.05)."""
    train, test = dataset_size
    return {
        "name": "perfbench",
        "approach": "mothernets",
        "seed": seed,
        "dataset": {"name": "cifar10", "train_samples": train, "test_samples": test,
                    "image_shape": list(IMAGE_SHAPE), "seed": seed},
        "members": {"family": "small_vgg", "num_classes": 10,
                    "input_shape": list(IMAGE_SHAPE), "width_scale": 0.05},
        "training": {"max_epochs": max_epochs, "batch_size": 128, "learning_rate": 0.05,
                     "momentum": 0.9, "convergence_patience": 2, "workers": workers},
        "trainer": {"tau": 0.5, "member_epoch_fraction": member_fraction},
    }


def draw_requests(rng: np.random.Generator, x: np.ndarray):
    """Pre-encoded bodies: ``BODIES_PER_SIZE`` per request size, rows drawn
    from ``x``.  Returns the bodies and the float64 inputs each carries (the
    array the server parses out of the body)."""
    bodies, inputs = [], []
    for rows in ROW_SIZES:
        for _ in range(BODIES_PER_SIZE):
            batch = x[rng.integers(0, len(x), size=rows)]
            body = json.dumps({"inputs": batch.tolist(), "proba": True}).encode("utf-8")
            bodies.append(client.Request(body=body, rows=rows, key=len(bodies)))
            inputs.append(np.asarray(json.loads(body)["inputs"], dtype=np.float64))
    return bodies, inputs


def draw_sequence(rng: np.random.Generator, bodies, count: int):
    """``count`` requests, ROW_PROBABILITIES of them of each of ROW_SIZES (as
    nearly as ``count`` allows), in a seeded random order.  Exact shares keep
    the number of slow 64-row requests from varying with the seed."""
    counts = [round(count * p) for p in ROW_PROBABILITIES[1:]]
    counts.insert(0, count - sum(counts))
    sizes = rng.permutation(np.repeat(np.arange(len(ROW_SIZES)), counts))
    picks = rng.integers(0, BODIES_PER_SIZE, size=count)
    return [bodies[int(s) * BODIES_PER_SIZE + int(p)] for s, p in zip(sizes, picks)]


# ---------------------------------------------------------------- training


def train_and_save(ctx: Context, spec_dict, dataset, output: Path):
    """The ``repro train`` path: journaled ``run_experiment``, then
    ``save_ensemble_run`` and discarding the journal."""
    from repro.api import ExperimentSpec, run_experiment, save_ensemble_run

    spec = ExperimentSpec.from_dict(spec_dict)
    start = time.perf_counter()
    with ctx.span("api.run_experiment"):
        result = run_experiment(spec, dataset=dataset, checkpoint_dir=output)
    with ctx.span("api.save"):
        save_start = time.perf_counter()
        save_ensemble_run(result.run, output)
        result.checkpoint.discard()
        save_seconds = time.perf_counter() - save_start
    seconds = time.perf_counter() - start
    ledger = result.run.ledger
    samples = sum(r.epochs * r.samples_per_epoch for r in ledger.records)
    return result, seconds, save_seconds, samples


def training_layers(ctx: Context, result, save_seconds: float, workers: int) -> None:
    """Per-layer figures of one traced training (ledger + trace hook)."""
    import spans

    ledger = result.run.ledger
    makespans = ledger.phase_makespans
    by_phase = ledger.seconds_by_phase()
    dumps = spans.load_all(ctx.recorder.out_dir)
    totals = spans.merged_totals(dumps, exclude_pid=os.getpid())
    totals_here = dict(ctx.recorder.totals)
    for key, value in totals_here.items():
        totals[key] = totals.get(key, 0.0) + value
    layer = ctx.per_layer
    layer["core.cluster_s"] = totals.get("core.cluster", 0.0)
    layer["core.mothernet_phase_s"] = makespans.get("mothernet", by_phase.get("mothernet", 0.0))
    layer["core.hatch_s"] = totals.get("core.hatch", 0.0)
    layer["core.member_phase_s"] = makespans.get("member", by_phase.get("member", 0.0))
    layer["api.save_s"] = save_seconds
    fit = totals.get("nn.fit", 0.0)
    layer["nn.fit_busy_s"] = fit
    accounted = 0.0
    for kind in LAYER_KINDS:
        for direction in ("fwd", "bwd"):
            value = totals.get(f"nn.{direction}.{kind}", 0.0)
            layer[f"nn.{direction}_s.{kind}"] = value
            accounted += value
    # Layer kinds outside the registered set still count as accounted time.
    for key, value in totals.items():
        if key.startswith(("nn.fwd.", "nn.bwd.")) and key.split(".", 2)[2] not in LAYER_KINDS:
            accounted += value
    layer["nn.optimizer_s"] = totals.get("nn.optimizer", 0.0)
    layer["nn.fit_self_s"] = fit - accounted - layer["nn.optimizer_s"]
    compute = ledger.seconds_by_compute_phase()
    for phase in ("im2col", "gemm", "col2im"):
        layer[f"nn.conv.{phase}_s"] = compute.get(f"conv.{phase}", 0.0)
    layer["nn.epochs.total"] = float(ledger.total_epochs)
    busy = capacity = 0.0
    for phase, makespan in makespans.items():
        records = [r for r in ledger.records if r.phase == phase]
        busy += sum(r.wall_clock_seconds for r in records)
        capacity += min(workers, len(records)) * makespan
    layer["parallel.busy_share"] = busy / capacity if capacity > 0 else 0.0
    layer["parallel.retries"] = registry_total("repro_training_task_retries_total")


def registry_total(name: str) -> float:
    """Sum over every label set of a counter in this process's registry."""
    from repro.obs.metrics import get_registry

    metric = get_registry().get(name)
    return float(sum(value for _, value in metric.samples())) if metric is not None else 0.0


def timed(build, seconds: list):
    """Call ``build``, append its wall-clock to ``seconds``, return its result."""
    start = time.perf_counter()
    result = build()
    seconds.append(time.perf_counter() - start)
    return result


def same_dataset(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("x_train", "y_train", "x_test", "y_test"))


# ------------------------------------------------------------ train_mothernets


def train_mothernets(ctx: Context) -> None:
    """Trainings alternate with chunks of the in-process phase, and the data
    set is regenerated (and must come out identical) between them: every
    short measurement is sampled at several points of the run instead of in
    one burst."""
    from repro.api import EnsemblePredictor

    train_size = (256, 128) if ctx.smoke else (2048, 512)
    max_epochs = 2 if ctx.smoke else 12
    workers = 2
    setup_times: List[float] = []

    def regenerate():
        with ctx.span("data.load"):
            return timed(lambda: make_dataset(ctx.seed, *train_size), setup_times)

    dataset = regenerate()
    spec = experiment_spec(ctx.seed, train_size, max_epochs, 0.4, workers)
    rng = np.random.default_rng([ctx.seed, 1])
    bodies, inputs = draw_requests(rng, dataset.x_test)
    sequence = draw_sequence(rng, bodies, 100 if ctx.smoke else INPROCESS_REQUESTS)
    phase = InProcessPhase(ctx, inputs, regenerate)

    # The repro-train path, repeated as often as --seconds buy (traced runs
    # too, so their train_s is comparable); each repetition is followed by
    # its share of the requests.
    repeats = max(1, int(ctx.seconds // TRAINING_ESTIMATE_S))
    train_seconds, rates, epochs, reference = [], [], set(), None
    for repeat, chunk in enumerate(np.array_split(np.arange(len(sequence)), repeats)):
        output = ctx.work / f"artifact-{repeat}"
        result, seconds, save_seconds, samples = train_and_save(ctx, spec, dataset, output)
        train_seconds.append(seconds)
        rates.append(samples / seconds)
        epochs.add(result.run.ledger.total_epochs)
        if repeat == 0:
            if ctx.trace:
                training_layers(ctx, result, save_seconds, workers)
            reference = check_reloaded_artifact(ctx, result, output, dataset)
        if not same_dataset(regenerate(), dataset):
            ctx.violation("the data set generated from one seed differs between calls")
        predictor = EnsemblePredictor.load(output)
        if not np.array_equal(predictor.predict_proba(dataset.x_test), reference):
            ctx.violation("repeated identical trainings produced different ensembles")
        phase.run(predictor, [sequence[i] for i in chunk])
    if len(epochs) != 1:
        ctx.violation(f"repeated identical trainings ran different epoch counts {sorted(epochs)}")
    ctx.end_to_end["setup_s"] = median(setup_times)
    ctx.per_layer["data.load_s"] = median(setup_times)
    ctx.end_to_end["train_s"] = median(train_seconds)
    ctx.end_to_end["train_samples_per_s"] = median(rates)
    latencies = phase.latencies
    ctx.end_to_end["p50_1row_ms"] = median(phase.by_rows[1])
    ctx.end_to_end["p50_64row_ms"] = median(phase.by_rows[64])
    ctx.end_to_end["peak_rps"] = 1e3 * len(latencies) / sum(latencies)
    ctx.per_layer["swap.seconds"] = median(phase.reloads)
    ctx.notes["trainings"] = repeats
    if ctx.trace:
        for rows in ROW_SIZES:
            ctx.per_layer[f"nn.predict_ms.rows{rows}"] = median(phase.by_rows[rows])
        ctx.per_layer["client.service_ms.mean"] = float(np.mean(latencies))
        ctx.per_layer["client.p50_ms"] = percentile(latencies, 50)
        ctx.per_layer["client.p95_ms"] = percentile(latencies, TAIL_PERCENTILE)


def check_reloaded_artifact(ctx: Context, result, output: Path, dataset) -> np.ndarray:
    """The saved artifact, reloaded, must predict bitwise like the in-memory
    ensemble, and its EA test error must be sane.  Returns its answers."""
    from repro.api import EnsemblePredictor

    in_memory = EnsemblePredictor.from_run(result.run).predict_proba(dataset.x_test)
    reloaded = EnsemblePredictor.load(output).predict_proba(dataset.x_test)
    ctx.attempted += 1
    if not np.array_equal(in_memory, reloaded):
        ctx.failed += 1
        ctx.violation("reloaded artifact does not predict bitwise like the in-memory ensemble")
    error = 100.0 * float(np.mean(reloaded.argmax(axis=1) != dataset.y_test))
    ctx.per_layer["quality.test_error_pct"] = error
    if not ctx.smoke and not error < MAX_TEST_ERROR_PCT:
        ctx.violation(f"EA test error {error:.2f}% is not below {MAX_TEST_ERROR_PCT}%")
    return reloaded


class InProcessPhase:
    """A reloaded predictor answering requests in process, paced at
    INPROCESS_RATE.  Every RELOAD_EVERY calls the artifact is reloaded and
    every REGENERATE_EVERY calls the data set regenerated, both timed."""

    def __init__(self, ctx: Context, inputs, regenerate):
        self.ctx = ctx
        self.inputs = inputs
        self.regenerate = regenerate
        self.reload_every = 25 if ctx.smoke else RELOAD_EVERY
        self.latencies: List[float] = []
        self.by_rows: Dict[int, List[float]] = {rows: [] for rows in ROW_SIZES}
        self.reloads: List[float] = []

    def run(self, predictor, sequence) -> None:
        with self.ctx.span("api.predict_proba"):
            begin = time.perf_counter()
            for index, request in enumerate(sequence):
                delay = begin + index / INPROCESS_RATE - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                start = time.perf_counter()
                predictor.predict_proba(self.inputs[request.key])
                elapsed = (time.perf_counter() - start) * 1e3
                self.latencies.append(elapsed)
                self.by_rows[request.rows].append(elapsed)
                if len(self.latencies) % self.reload_every == 0:
                    timed(predictor.reload, self.reloads)
                if len(self.latencies) % REGENERATE_EVERY == 0:
                    self.regenerate()


# ------------------------------------------------------------ serving


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text -> ``{"name{labels}": value}``."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        values[key] = float(value)
    return values


def metric_delta(before, after, name: str, labels: str = "") -> float:
    """Change of one series, or of every label set of ``name`` when
    ``labels`` is empty."""
    if labels:
        key = f"{name}{{{labels}}}"
        return after.get(key, 0.0) - before.get(key, 0.0)
    total = 0.0
    for key, value in after.items():
        if key == name or key.startswith(name + "{"):
            total += value - before.get(key, 0.0)
    return total


def mean_ms(before, after, histogram: str, labels: str = "") -> tuple:
    """(mean in ms, observation count) of a histogram over a phase."""
    count = metric_delta(before, after, f"{histogram}_count", labels)
    total = metric_delta(before, after, f"{histogram}_sum", labels)
    return (1e3 * total / count if count else 0.0), count


class Server:
    """A ``python -m repro serve`` subprocess in queue mode: one fleet
    consumer with a two-worker pool, autoscaling off."""

    def __init__(self, ctx: Context, store: Path):
        args = [sys.executable, "-m", "repro", "serve", "--artifact", str(store),
                "--port", "0", "--workers", "2", "--transport", "shm", "--mode", "queue",
                "--min-consumers", "1", "--max-consumers", "1", "--no-autoscale"]
        env = dict(os.environ)
        # The server is not traced from inside: its layers are read from
        # /metrics.  Keep the trace hook out of its processes.
        env.pop("PERFBENCH_TRACE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if "tracehook" not in p
        )
        self.log = open(ctx.work / "server.log", "wb")
        self.process = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=self.log, env=env
        )
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"repro serve exited with {self.process.wait()} before its banner")
        banner = json.loads(line)
        self.host, self.port = banner["host"], int(banner["port"])

    def get(self, path: str, method: str = "GET", body=None):
        return client.get_json(self.host, self.port, path, method, body)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, health = self.get("/healthz")
            if status == 200 and health.get("status") == "ok":
                return
            time.sleep(0.05)
        raise RuntimeError(f"server not healthy after {timeout}s: {health}")

    def stop(self, ctx: Context) -> None:
        self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, _ = self.process.communicate()
            ctx.violation("repro serve did not stop within 60s of SIGTERM")
        self.log.close()
        if self.process.returncode != 0 or b'"stopped"' not in out:
            ctx.violation(f"repro serve exited with {self.process.returncode} without a stop banner")


class Checker:
    """Compares each answer with the in-process answers of generation 0/1."""

    def __init__(self, ctx: Context, references):
        self.ctx = ctx
        self.references = references  # generation -> list of float64 arrays

    def generation_of(self, sample: client.Sample) -> Optional[int]:
        if sample.error is not None or sample.status != 200:
            return None
        try:
            answer = np.asarray(json.loads(sample.payload)["probabilities"], dtype=np.float64)
        except (ValueError, KeyError, TypeError):
            return None
        for generation, table in self.references.items():
            if np.array_equal(answer, table[sample.request.key]):
                return generation
        return None

    def check(self, samples, allowed) -> None:
        """Count ``samples``; those not answered by an allowed generation
        (a callable of the sample) fail."""
        bad = 0
        for sample in samples:
            generation = self.generation_of(sample)
            if generation is None or generation not in allowed(sample):
                bad += 1
        self.ctx.attempted += len(samples)
        self.ctx.failed += bad
        if bad:
            first = next(s for s in samples if self.generation_of(s) not in allowed(s))
            detail = first.error or f"HTTP {first.status} {(first.payload or b'')[:200]!r}"
            self.ctx.violation(f"{bad}/{len(samples)} answers wrong or failed (first: {detail})")


def train_generation(ctx: Context, dataset, store: Path, generation: int, train_size,
                     repeats: int = 1):
    """Train one generation of the serving artifact (seed + generation) and
    write it to the store, ``repeats`` times: each repetition of generation
    1 is written as a further store generation and must predict bitwise
    like the first.  Returns (median seconds, samples trained)."""
    from repro.api import EnsemblePredictor, ExperimentSpec, run_experiment, save_ensemble_run
    from repro.core.artifact_store import ArtifactStore

    spec = ExperimentSpec.from_dict(experiment_spec(
        ctx.seed + generation, train_size, 1 if ctx.smoke else SERVE_EPOCHS[generation], 1.0, 1))
    seconds, written = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        with ctx.span("api.run_experiment"):
            result = run_experiment(spec, dataset=dataset)
        with ctx.span("api.save"):
            save_start = time.perf_counter()
            if generation == 0:
                save_ensemble_run(result.run, store)
                ArtifactStore.open(store)  # migrates the bare artifact to gen-0000
                written.append(0)
            else:
                written.append(ArtifactStore(store).add_generation(result.run, parent_generation=0))
            save_seconds = time.perf_counter() - save_start
        seconds.append(time.perf_counter() - start)
    if ctx.trace and generation == 0:
        training_layers(ctx, result, save_seconds, 1)
    answers = [EnsemblePredictor.load(store, generation=g).predict_proba(dataset.x_test)
               for g in written] if repeats > 1 else []
    if any(not np.array_equal(answers[0], other) for other in answers[1:]):
        ctx.violation(f"identical retrains of generation {generation} predict differently")
    return median(seconds), sum(r.epochs * r.samples_per_epoch for r in result.run.ledger.records)


def references(ctx: Context, store: Path, generation: int, inputs, dataset):
    """In-process answers of one generation for every body and, for
    generation 0, its test error and the predict time per request size
    (median over two passes)."""
    from repro.api import EnsemblePredictor

    predictor = EnsemblePredictor.load(store, generation=generation)
    times = {rows: [] for rows in ROW_SIZES}
    passes = 2 if generation == 0 else 1
    table = []
    for x in inputs:
        for _ in range(passes):
            start = time.perf_counter()
            answer = predictor.predict_proba(x)
            times[x.shape[0]].append((time.perf_counter() - start) * 1e3)
        table.append(np.asarray(answer, dtype=np.float64))
    if generation == 0:
        labels = predictor.predict_proba(dataset.x_test).argmax(axis=1)
        ctx.per_layer["quality.test_error_pct"] = 100.0 * float(np.mean(labels != dataset.y_test))
    return table, {rows: median(values) for rows, values in times.items()}


def serve_queue(ctx: Context) -> None:
    """Set-up trains generation 0 and starts the server; generation 1 is
    trained while the server runs (as ``repro retrain`` would; this is the
    workload's ``train_s``) and swapped in under load."""
    train_size = (256, 128) if ctx.smoke else SERVE_DATA
    store = ctx.work / "store"
    setup_start = time.perf_counter()
    data_times: List[float] = []
    with ctx.span("data.load"):
        for _ in range(SETUP_REPEATS):
            dataset = timed(lambda: make_dataset(ctx.seed, *train_size), data_times)
    ctx.per_layer["data.load_s"] = median(data_times)
    setup_train_s, _ = train_generation(ctx, dataset, store, 0, train_size)
    rng = np.random.default_rng([ctx.seed, 2])
    bodies, inputs = draw_requests(rng, dataset.x_test)
    table, predict_ms = references(ctx, store, 0, inputs, dataset)
    checker = Checker(ctx, {0: table})
    server = Server(ctx, store)
    try:
        server.wait_healthy()
        connections = [client.Connection(server.host, server.port) for _ in range(client.CONNECTIONS)]
        warm = client.closed_loop(connections, bodies)
        checker.check(warm.samples, lambda s: {0})
        ctx.end_to_end["setup_s"] = time.perf_counter() - setup_start
        nominal, scrapes = measure_load(ctx, server, connections, bodies, checker, rng)

        train_s, samples = train_generation(ctx, dataset, store, 1, train_size, RETRAIN_REPEATS)
        ctx.end_to_end["train_s"] = train_s
        ctx.end_to_end["train_samples_per_s"] = samples / train_s
        ctx.notes["generation_seconds"] = [setup_train_s, train_s]
        checker.references[1] = references(ctx, store, 1, inputs, dataset)[0]

        swap = swap_phase(ctx, server, connections, bodies, checker, rng)
        check_generator(ctx, nominal.samples + swap)
        if ctx.trace:
            serving_layers(ctx, nominal, scrapes, predict_ms)
        for connection in connections:
            connection.close()
    finally:
        server.stop(ctx)


def scrape_metrics(server: Server, bodies) -> Dict[str, float]:
    """``/metrics`` of the front.  Fleet consumers ship their registry deltas
    with job acks at most once per second, so first wait that long and send
    one 1-row request whose ack carries everything held back."""
    time.sleep(QUEUE_METRICS_FLUSH_S)
    flush = client.Connection(server.host, server.port)
    try:
        flush.request("POST", "/predict", bodies[0].body)
    finally:
        flush.close()
    return parse_metrics(server.get("/metrics")[1])


def measure_load(ctx, server, connections, bodies, checker, rng):
    """The open loop at NOMINAL_RATE for --seconds, then closed-loop
    saturation; every answer must come from generation 0.  Traced runs
    also return ``/metrics`` scraped around the open loop.

    The latency figures are medians per request size.  The median of the
    whole mix falls where the 1-row and 8-row latencies meet, a sparse
    stretch of the distribution: over five runs with a CPU hog switched on
    and off in the background it spread 2.4 times as much as the 1-row
    median.  The tail percentile of the mix lands on the delayed-ACK stall,
    whose frequency changes with timing (8-17% of 1-row requests).  Both
    are reported per layer, without a bound."""
    open_count = 40 if ctx.smoke else int(NOMINAL_RATE * ctx.seconds)
    sequence = draw_sequence(rng, bodies, open_count)
    offsets = client.poisson_schedule(rng, NOMINAL_RATE, open_count)
    scrapes = [scrape_metrics(server, bodies)] if ctx.trace else []
    with ctx.span("client.open_loop"):
        nominal = client.open_loop(connections, sequence, offsets)
    if ctx.trace:
        scrapes.append(scrape_metrics(server, bodies))
    checker.check(nominal.samples, lambda s: {0})
    for rows in (1, 64):
        ctx.end_to_end[f"p50_{rows}row_ms"] = median(
            s.latency_ms for s in nominal.samples if s.request.rows == rows)

    saturation_count = 40 if ctx.smoke else SATURATION_REQUESTS
    with ctx.span("client.closed_loop"):
        saturation = client.closed_loop(connections, draw_sequence(rng, bodies, saturation_count))
    checker.check(saturation.samples, lambda s: {0})
    ctx.end_to_end["peak_rps"] = saturation_count / saturation.seconds
    return nominal, scrapes


def check_generator(ctx: Context, samples) -> None:
    """A run whose generator ran late with a free connection is invalid."""
    late = max(s.late_ms for s in samples)
    ctx.per_layer["client.late_ms.max"] = late
    if late > client.MAX_LATE_MS:
        ctx.violation(
            f"load generator ran {late:.1f} ms late with a free connection "
            f"(limit {client.MAX_LATE_MS} ms): the run measured the client"
        )


def swap_phase(ctx, server, connections, bodies, checker, rng):
    """Hot-swap through SWAP_TARGETS under nominal load; ``swap.seconds`` is
    the median time from ``POST /admin/swap`` until the response says every
    worker or consumer serves the target generation."""
    import threading

    count = int(NOMINAL_RATE * 120)
    sequence = draw_sequence(rng, bodies, count)
    offsets = client.poisson_schedule(rng, NOMINAL_RATE, count)
    stop = threading.Event()
    result = {}
    loader = threading.Thread(
        target=lambda: result.update(
            phase=client.open_loop(connections, sequence, offsets, stop=stop)
        ),
        daemon=True,
    )
    swaps, respawned, final_done = [], [], None
    with ctx.span("client.swap"):
        loader.start()
        try:
            for target in SWAP_TARGETS:
                time.sleep(SWAP_GAP_S)
                start = time.perf_counter()
                status, reply = server.get("/admin/swap", "POST", {"generation": target})
                final_done = time.perf_counter()
                swaps.append(final_done - start)
                if status != 200 or reply.get("generation") != target:
                    ctx.violation(f"swap to generation {target} failed: HTTP {status} {reply}")
                respawned.append(reply.get("workers_respawned", reply.get("consumers_acked", 0)))
            time.sleep(SWAP_GAP_S)
        finally:
            stop.set()
            loader.join()
    # Answers sent after the last swap returned must come from its target.
    last = SWAP_TARGETS[-1]
    checker.check(
        result["phase"].samples,
        lambda s: {last} if final_done is not None and s.sent >= final_done else {0, 1},
    )
    ctx.per_layer["swap.seconds"] = median(swaps)
    ctx.per_layer["swap.workers_respawned"] = float(median(respawned))
    return result["phase"].samples


def serving_layers(ctx, nominal, scrapes, predict_ms) -> None:
    """Per-hop means of the open-loop phase from /metrics deltas."""
    before, after = scrapes
    layer = ctx.per_layer
    samples = nominal.samples
    service = float(np.mean([s.service_ms for s in samples]))
    layer["client.service_ms.mean"] = service
    layer["client.lag_ms.p99"] = percentile([s.lag_ms for s in samples], 99)
    latencies = [s.latency_ms for s in samples]
    layer["client.p50_ms"] = percentile(latencies, 50)
    layer["client.p95_ms"] = percentile(latencies, TAIL_PERCENTILE)
    handler, handler_n = mean_ms(before, after, "repro_http_request_latency_seconds",
                                 'path="/predict"')
    pool, pool_n = mean_ms(before, after, "repro_serve_request_latency_seconds")
    job, job_n = mean_ms(before, after, "repro_fleet_job_latency_seconds")
    # The in-process predict time of the phase's own request mix.
    nn = float(np.mean([predict_ms[s.request.rows] for s in samples]))
    layer["server.wire_ms.mean"] = service - handler
    layer["server.codec_ms.mean"] = handler - job
    layer["serving.pool_ms.mean"] = pool
    layer["serving.overhead_ms.mean"] = pool - nn
    layer["fleet.job_ms.mean"] = job
    layer["fleet.overhead_ms.mean"] = job - pool
    for rows in ROW_SIZES:
        layer[f"nn.predict_ms.rows{rows}"] = predict_ms[rows]
    dispatch_rows = metric_delta(before, after, "repro_serve_dispatch_rows_sum")
    dispatches = metric_delta(before, after, "repro_serve_dispatch_rows_count")
    layer["serving.rows_per_dispatch"] = dispatch_rows / dispatches if dispatches else 0.0
    layer["shm.bytes_per_request"] = (
        metric_delta(before, after, "repro_serve_transport_bytes_total") / pool_n if pool_n else 0.0
    )
    layer["shm.fallbacks"] = metric_delta(before, after, "repro_serve_transport_fallbacks_total")
    layer["fleet.redeliveries"] = metric_delta(before, after, "repro_fleet_redeliveries_total")
    # Each hop is the remainder of an outer measurement minus an inner one,
    # so wire + codec + fleet overhead + pool overhead + in-process predict
    # equals the client's mean service time by construction.  What can fail:
    # an inner layer measured longer than the layer around it (a negative
    # hop), or a layer that did not observe exactly the phase's requests.
    hops = ["server.wire_ms.mean", "server.codec_ms.mean", "serving.overhead_ms.mean",
            "fleet.overhead_ms.mean"]
    negative = {name: round(layer[name], 3) for name in hops if layer[name] < 0.0}
    if negative:
        ctx.violation(f"serving hops measured negative (inner layer slower than outer): {negative}")
    ctx.notes["layer_counts"] = {"client": len(samples), "http": handler_n, "pool": pool_n,
                                 "fleet": job_n}
    # The flush request that closes the phase is counted too.
    expected = len(samples) + 1
    if handler_n != expected or job_n != expected or pool_n != expected:
        ctx.violation(f"layer observation counts do not match the phase: {ctx.notes['layer_counts']}")


WORKLOADS = {
    "train_mothernets": train_mothernets,
    "serve_queue": serve_queue,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    ctx = Context(args)
    started = time.perf_counter()
    with ctx.span(f"workload.{args.workload}"):
        WORKLOADS[args.workload](ctx)
    result = {
        "workload": args.workload,
        "seconds": time.perf_counter() - started,
        "end_to_end": ctx.end_to_end,
        "per_layer": ctx.per_layer,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "violations": ctx.violations,
        "notes": ctx.notes,
    }
    if ctx.recorder is not None:
        ctx.recorder.dump()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads and metrics are registered in
``BENCHMARK.json``; their definitions and the layer-to-end-to-end pairings
are in ``perfbench/metrics.json``.

The workload runs in a child process (``perfbench/workload.py``) in its own
session, with every BLAS/OpenMP thread pool pinned to one thread.  After it
exits this process checks hygiene: no process of the session (server, pool
worker, fleet consumer, training worker) may survive, and no new
``/dev/shm`` entry may remain.  Leftovers are removed and fail the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload with the trace hook (``perfbench/tracehook``) on ``PYTHONPATH`` and
prints the per-layer metrics; its tracing overhead is the change of
``train_s`` (the hook wraps training code only) against untraced runs of
the same source tree in the run log.  When the log holds none it first runs
the workload untraced with ``--seconds 1``: ``train_s`` is a median over
trainings of fixed size, so the run's length changes only how many there
are.  Traced and untraced runs do the same work per training.

Each invocation appends one record to ``perfbench/records.jsonl`` (or
``--records``) and never rewrites earlier ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only if every answer was right and no
hygiene or validity check failed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every run, including one that fails, ends within this many seconds.
RUN_BUDGET_S = 170.0
#: Time the session's processes get to exit on their own after the workload.
EXIT_GRACE_S = 5.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
#: The metric whose traced/untraced ratio is the tracing overhead.  The trace
#: hook wraps training code only (the server's processes are not traced), so
#: every workload compares its training time.
PRIMARY = "train_s"
#: ``--seconds`` of the untraced run a traced run measures its overhead
#: against when the run log holds none.
BASELINE_SECONDS = 1.0


def session_processes(session: int) -> List[int]:
    """Live processes whose process group is ``session``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == session and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def command_line(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def digest(paths) -> str:
    """Digest of files' names and contents.  The checkout may not be a git
    repository, so this names the program and the benchmark a record
    measured."""
    hasher = hashlib.sha256()
    for path in sorted(paths):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> Dict[str, object]:
    import numpy

    blas = None
    try:
        config = numpy.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{deps.get('name')} {deps.get('version')}".strip()
    except (TypeError, AttributeError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {name: "1" for name in THREAD_VARS},
    }


class Run:
    """One child workload process and the hygiene checks around it."""

    def __init__(self, args, trace: bool, deadline: float, seconds: Optional[float] = None):
        self.args = args
        self.trace = trace
        self.seconds = args.seconds if seconds is None else seconds
        self.deadline = deadline
        self.violations: List[str] = []
        self.work = HERE / "_work" / f"{args.workload}-{os.getpid()}-{int(trace)}"

    def execute(self) -> Optional[dict]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        env = dict(os.environ)
        env.update({name: "1" for name in THREAD_VARS})
        paths = [str(ROOT / "src")]
        if self.trace:
            trace_dir = self.work / "trace"
            trace_dir.mkdir()
            paths.append(str(HERE / "tracehook"))
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        out = self.work / "result.json"
        command = [sys.executable, str(HERE / "workload.py"), "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--seconds", str(self.seconds),
                   "--trace", str(int(self.trace)), "--work", str(self.work), "--out", str(out)]
        if self.args.smoke:
            command.append("--smoke")
        shm_before = shm_entries()
        child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                                 start_new_session=True)
        try:
            child.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.violations.append("workload exceeded the run's time budget")
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        self.check_processes(child.pid)
        self.check_shm(shm_before)
        result = None
        if child.returncode != 0:
            self.violations.append(f"workload exited with code {child.returncode}")
        elif out.is_file():
            result = json.loads(out.read_text(encoding="utf-8"))
            self.violations.extend(result["violations"])
        else:
            self.violations.append("workload wrote no result")
        shutil.rmtree(self.work, ignore_errors=True)
        return result

    def check_processes(self, session: int) -> None:
        end = time.monotonic() + EXIT_GRACE_S
        survivors = session_processes(session)
        while survivors and time.monotonic() < end:
            time.sleep(0.1)
            survivors = session_processes(session)
        if survivors:
            self.violations.append(
                "processes survived the workload: "
                + "; ".join(f"{pid} {command_line(pid)[:120]}" for pid in survivors)
            )
            try:
                os.killpg(session, signal.SIGKILL)
            except ProcessLookupError:
                pass
            while session_processes(session) and time.monotonic() < end + EXIT_GRACE_S:
                time.sleep(0.1)

    def check_shm(self, before: set) -> None:
        leaked = sorted(shm_entries() - before)
        if leaked:
            self.violations.append(f"/dev/shm entries left behind: {leaked}")
            for name in leaked:
                try:
                    os.unlink(f"/dev/shm/{name}")
                except OSError:
                    pass


def read_records(path: Path) -> List[dict]:
    if not path.is_file():
        return []
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records


def untraced_baseline(records: List[dict], args, src_sha: str, bench_sha: str,
                      primary: str) -> Optional[float]:
    """The primary metric of logged untraced runs of this workload with this
    program and benchmark, of any length: the same seed's latest run, else
    the median over seeds."""
    matching = [
        r for r in records
        if r.get("workload") == args.workload and r.get("src_sha") == src_sha
        and r.get("bench_sha") == bench_sha
        and not r.get("trace") and r.get("correct")
        and bool(r.get("smoke")) == args.smoke and primary in r.get("metrics", {})
    ]
    chosen = [r for r in matching if r.get("seed") == args.seed][-1:] or matching
    if not chosen:
        return None
    return statistics.median(r["metrics"][primary] for r in chosen)


def append_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=Path, default=HERE / "records.jsonl",
                        help="append-only run log (default: perfbench/records.jsonl)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the machinery, measures nothing")
    args = parser.parse_args()
    started = time.monotonic()

    registry_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not registry_path.is_file():
        print(f"error: {ROOT} lacks the repro source tree (src/repro) or BENCHMARK.json",
              file=sys.stderr)
        return 2
    registry = json.loads(registry_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in registry["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; registered: {workloads}",
              file=sys.stderr)
        return 2
    env_info = environment()
    src_sha = digest((ROOT / "src").rglob("*.py"))
    bench_sha = digest([registry_path, *HERE.rglob("*.py"), HERE / "metrics.json"])
    deadline = started + RUN_BUDGET_S

    baseline = None
    violations: List[str] = []
    if args.trace:
        baseline = untraced_baseline(read_records(args.records), args, src_sha, bench_sha,
                                     PRIMARY)
        if baseline is None:
            untraced = Run(args, trace=False, deadline=started + RUN_BUDGET_S / 2,
                           seconds=BASELINE_SECONDS)
            result = untraced.execute()
            violations.extend(f"untraced baseline: {v}" for v in untraced.violations)
            if result is not None:
                baseline = result["end_to_end"].get(PRIMARY)

    run = Run(args, trace=bool(args.trace), deadline=deadline)
    result = run.execute()
    violations.extend(run.violations)
    attempted = result["attempted"] if result else 0
    failed = result["failed"] if result else 0

    if args.trace:
        specs = registry["per_layer"]
        values = dict(result["per_layer"]) if result else {}
        values["cpu_count"] = float(env_info["cpu_count"])
        values["failed_pct"] = 100.0 * failed / attempted if attempted else 100.0
        traced = result["end_to_end"].get(PRIMARY) if result else None
        if traced is not None and baseline:
            values["trace.overhead_pct"] = 100.0 * (traced / baseline - 1.0)
        elif result is not None:
            violations.append("no untraced run to measure the tracing overhead against")
    else:
        specs = registry["end_to_end"]
        values = dict(result["end_to_end"]) if result else {}
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif args.trace:
            value = 0.0  # the layer is not on this workload's path
        else:
            if result is not None:
                violations.append(f"workload reported no {name}")
            continue
        metrics[name] = {"value": float(value), "unit": spec["unit"]}

    correct = not violations and failed == 0 and attempted > 0
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": git_commit(),
        "src_sha": src_sha,
        "bench_sha": bench_sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        **env_info,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "metrics": {name: m["value"] for name, m in metrics.items()},
        "figures": {**result["end_to_end"], **result["per_layer"]} if result else {},
        "notes": result["notes"] if result else {},
        "wall_s": time.monotonic() - started,
    }
    append_record(args.records, record)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"cpu_count {env_info['cpu_count']} numpy {env_info['numpy']} blas {env_info['blas']}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    for violation in violations:
        print(f"  VIOLATION: {violation}")
    if attempted == 0:  # nothing was answered: count the run itself as one failure
        attempted = failed = 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Trace hook for the benchmark's traced runs; never imported otherwise.

The traced run puts this directory on ``PYTHONPATH``, so every Python
process of the run imports this module at start-up: the workload process
and the training workers it spawns.  For processes the benchmark does not
call into directly, this is how their time is attributed.  The hook wraps
public entry points of ``repro`` modules as they are imported:

* ``Trainer.fit`` (``nn.fit``), ``Optimizer.step`` (``nn.optimizer``);
* ``forward``/``backward`` of every ``Layer`` class, as self time per layer
  kind while a fit is running (``nn.fwd.<Kind>`` / ``nn.bwd.<Kind>``);
* ``cluster_ensemble`` and ``hatch`` as the MotherNets trainer calls them
  (``core.cluster`` / ``core.hatch``).

The totals are written to ``$PERFBENCH_TRACE_DIR/<pid>.json`` after every
fit and at exit, so a worker that is stopped without running its exit
handlers has still written what it trained.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import os
import sys
import time

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")


def _install() -> None:
    import spans

    recorder = spans.ACTIVE = spans.Recorder(_TRACE_DIR)
    # Self-time stack of the wrapped layer calls on this thread; training is
    # single-threaded in every process that fits.
    child_time = []
    state = {"fit_depth": 0}

    def timed_layer(method, direction):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                if state["fit_depth"]:
                    recorder.add(f"nn.{direction}.{type(self).__name__}", elapsed - children)

        return wrapper

    def total_only(name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                recorder.add(name, time.perf_counter() - start)

        return wrapper

    def timed(name, func, dump_after=False):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return func(*args, **kwargs)

        if not dump_after:
            return wrapper

        @functools.wraps(func)
        def fit_wrapper(*args, **kwargs):
            state["fit_depth"] += 1
            try:
                return wrapper(*args, **kwargs)
            finally:
                state["fit_depth"] -= 1
                recorder.dump()

        return fit_wrapper

    def patch_layers(module):
        base = module.Layer
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for name, direction in (("forward", "fwd"), ("backward", "bwd")):
                if name in cls.__dict__:
                    setattr(cls, name, timed_layer(cls.__dict__[name], direction))

    def patch_model(module):
        # Every layer class is imported by the time the model module is.
        patch_layers(sys.modules["repro.nn.layers.base"])

    def patch_training(module):
        module.Trainer.fit = timed("nn.fit", module.Trainer.fit, dump_after=True)

    def patch_optimizers(module):
        module.Optimizer.step = total_only("nn.optimizer", module.Optimizer.step)

    def patch_trainer(module):
        module.cluster_ensemble = timed("core.cluster", module.cluster_ensemble)
        module.hatch = timed("core.hatch", module.hatch)

    patches = {
        "repro.nn.model": patch_model,
        "repro.nn.training": patch_training,
        "repro.nn.optimizers": patch_optimizers,
        "repro.core.trainer": patch_trainer,
    }

    class Finder(importlib.abc.MetaPathFinder):
        def find_spec(self, fullname, path, target=None):
            patch = patches.get(fullname)
            if patch is None:
                return None
            for finder in sys.meta_path:
                if finder is self:
                    continue
                spec = getattr(finder, "find_spec", lambda *a: None)(fullname, path, target)
                if spec is not None:
                    break
            else:
                return None
            loader = spec.loader
            exec_module = loader.exec_module

            def exec_and_patch(module):
                exec_module(module)
                patch(module)

            loader.exec_module = exec_and_patch
            return spec

    sys.meta_path.insert(0, Finder())
    atexit.register(recorder.dump)


if _TRACE_DIR:
    _install()

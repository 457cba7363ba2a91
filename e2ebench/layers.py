"""Per-layer timing for the traced run, recorded from outside the program.

Each layer is timed by wrapping one public entry point where its caller
looks it up (a class attribute for methods, the calling module's global for
functions).  Nothing inside ``src/`` changes, and the untraced run installs
no wrappers at all.

Self time is kept online with a stack: when a wrapped call returns, its
duration minus the time spent in wrapped calls nested inside it is added to
its layer.  Spans are kept in memory as ``(name, start, end, depth)`` and
handed back once, at the end of the run.  ``MeasurementStore.get`` runs once
per row, so it is timed and counted like every other entry point but leaves
no span record.

The recorder assumes wrapped calls happen on one thread: the benchmark runs
campaigns on the serial executor and the nn kernels with their default
(serial) policy.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: ``(module, attribute path, layer name)`` of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.datasets.generation", "generate_dataset", "datasets.generate"),
    ("repro.meta.maml", "MAMLTrainer.meta_step", "meta.meta_step"),
    ("repro.meta.maml", "MAMLTrainer.meta_validate", "meta.meta_validate"),
    ("repro.core.metadse", "generate_wam", "meta.wam"),
    ("repro.core.metadse", "adapt_predictor_batch", "meta.adapt"),
    ("repro.meta.adaptation", "adapt_predictor_batch", "meta.adapt"),
    ("repro.dse.engine", "RandomPool.propose_for", "dse.propose.random"),
    ("repro.dse.engine", "FocusedPool.propose_for", "dse.propose.focused"),
    ("repro.dse.engine", "NSGA2Evolve.propose_for", "dse.propose.nsga2"),
    ("repro.dse.nsga2", "fast_non_dominated_sort", "dse.nsga2.sort"),
    ("repro.dse.surrogates", "StackedPredictorSurrogate.predict", "dse.surrogate.predict"),
    ("repro.dse.engine", "screen_predict", "dse.screen"),
    ("repro.runtime.campaign", "run_jobs", "runtime.run_jobs"),
    ("repro.sim.simulator", "Simulator.run_sweep", "sim.run_sweep"),
    ("repro.store", "MeasurementStore.put_batch", "store.put_batch"),
    ("repro.store", "MeasurementStore.refresh", "store.refresh"),
    ("repro.store", "MeasurementStore.get", "store.get"),
)

#: Layers whose calls are too frequent and too short to keep a span each.
UNRECORDED = {"store.get"}
#: Layers whose call counts are reported.
CALLS = ("meta.meta_step", "meta.adapt", "dse.nsga2.sort")
#: Work counted from the wrapped calls' arguments and results.
COUNTS = (
    "dse.surrogate.predict.rows",
    "runtime.jobs",
    "sim.evaluations",
    "sim.store_hits",
    "store.records_written",
    "store.records_loaded",
)


class Recorder:
    """Wraps the entry points and accumulates self time, calls and counts."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        #: Benchmark section the current call belongs to (``"warm"`` marks
        #: the store read passes whose lookups give ``store.hit_ratio``).
        self.section = ""
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float], start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        self.busy[name] += duration - frame[0]
        self.calls[name] += 1
        if name not in UNRECORDED:
            self.spans.append((name, start, end, len(self._stack)))

    @contextmanager
    def span(self, name: str):
        """Span around a benchmark section; its self time is unattributed time."""
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, time.perf_counter())

    @contextmanager
    def mark(self, section: str):
        """Label the calls made inside the block as belonging to *section*."""
        previous, self.section = self.section, section
        try:
            yield
        finally:
            self.section = previous

    # -- wrappers --------------------------------------------------------
    def _wrap(self, function, name: str):
        recorder = self
        count = _COUNTERS.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            before = count.before(args) if count is not None else None
            frame = recorder._enter()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                recorder._exit(name, frame, start, time.perf_counter())
            if count is not None:
                count.after(recorder, before, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def layer_metrics(self) -> dict[str, float]:
        """Self times and counts under the per-layer metric names."""
        metrics = {f"{name}.busy_s": self.busy[name] for _, _, name in ENTRY_POINTS}
        metrics["bench.timed_s"] = sum(end - start for name, start, end, _ in self.spans if name == "bench.timed")
        metrics["bench.timed.unattributed_s"] = self.busy["bench.timed"]
        for name in CALLS:
            metrics[f"{name}.calls"] = self.calls[name]
        for name in COUNTS:
            metrics[name] = self.counts[name]
        lookups = self.counts["store.warm_lookups"]
        metrics["store.hit_ratio"] = self.counts["store.warm_hits"] / lookups if lookups else 0.0
        return metrics


class _Counter:
    """Counts one layer's work from a call's arguments and result."""

    def __init__(self, after, before=None) -> None:
        self.after = after
        self.before = before if before is not None else (lambda args: None)


def _count_sweep_before(args):
    simulator = args[0]
    return simulator.evaluation_count, simulator.store_hit_count


def _count_sweep(recorder, before, args, result) -> None:
    simulator = args[0]
    recorder.counts["sim.evaluations"] += simulator.evaluation_count - before[0]
    recorder.counts["sim.store_hits"] += simulator.store_hit_count - before[1]


def _count_get(recorder, before, args, result) -> None:
    if recorder.section == "warm":
        recorder.counts["store.warm_lookups"] += 1
        recorder.counts["store.warm_hits"] += result is not None


def _add(counter: str, measure):
    def after(recorder, before, args, result) -> None:
        recorder.counts[counter] += measure(args, result)

    return _Counter(after)


_COUNTERS = {
    "dse.surrogate.predict": _add("dse.surrogate.predict.rows", lambda a, r: len(a[1])),
    "runtime.run_jobs": _add("runtime.jobs", lambda a, r: len(r)),
    "sim.run_sweep": _Counter(_count_sweep, _count_sweep_before),
    "store.put_batch": _add("store.records_written", lambda a, r: r),
    "store.refresh": _add("store.records_loaded", lambda a, r: r),
    "store.get": _Counter(_count_get),
}

"""Per-layer self time, measured from outside the program.

:func:`install` wraps the public entry point of every layer the benchmark
reports with a span on one stack per process.  A span's *self time* is
its duration minus the time its child spans cover, so the self times of
all layers plus the time outside every span add up to the traced wall
time.  No program module is edited: the wrappers replace class attributes
and module globals after import.

Counters the program already keeps come from a
:class:`~repro.telemetry.TelemetryRecorder`, which the wrapper around
``HybridTestGenerator.__init__`` hands to every driver built without one,
and from ``codegen.COMPILE_STATS``.

Campaign workers are forked after :func:`install`, so they inherit the
wrappers.  Each worker starts from empty totals and writes them to
``<dump_dir>/worker-<pid>.json`` when it exits; :func:`worker_dumps`
reads them back in the parent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: ``after(tracer, result, seconds)`` runs once a wrapped call returns
After = Callable[["Tracer", Any, float], None]


class Tracer:
    """Span stack, per-layer self seconds and counts for one process."""

    def __init__(self) -> None:
        from repro.telemetry import TelemetryRecorder

        self.recorder = TelemetryRecorder()
        self.clear()

    def clear(self) -> None:
        """Drop every total, keeping the recorder drivers already hold."""
        from repro.telemetry import MetricsRegistry

        self.stack: List[List[Any]] = []  # [layer, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.fault_ms: List[float] = []
        self.recorder.registry = MetricsRegistry()

    def enter(self, layer: str) -> None:
        self.stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; its duration."""
        layer, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def to_dict(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "fault_ms": self.fault_ms,
            "counters": dict(self.recorder.registry.counters),
        }


TRACER: Optional[Tracer] = None


def _spanned(layer: str, fn: Callable[..., Any],
             after: Optional[After] = None) -> Callable[..., Any]:
    """``fn`` timed as one ``layer`` span."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = TRACER
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = tracer.exit()
        tracer.counts[f"{layer}.calls"] += 1
        if after is not None:
            after(tracer, result, seconds)
        return result

    return wrapper


def _traced_solutions(original: Callable[..., Any]) -> Callable[..., Any]:
    """``PodemEngine.solutions`` with each ``next`` timed, split by mode."""

    @functools.wraps(original)
    def solutions(self: Any, limits: Any) -> Any:
        tracer = TRACER
        layer = (
            "atpg.podem.detect" if self.fault is not None
            else "atpg.podem.justify"
        )
        inner = original(self, limits)
        try:
            while True:
                backtracks = self.backtracks
                tracer.enter(layer)
                try:
                    solution = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                    tracer.counts["atpg.podem.backtracks"] += (
                        self.backtracks - backtracks
                    )
                tracer.counts["atpg.podem.solutions"] += 1
                yield solution
        finally:
            inner.close()

    return solutions


def _successes(layer: str) -> After:
    def after(tracer: Tracer, result: Any, seconds: float) -> None:
        from repro.atpg.justify import JustifyStatus

        if result.status is JustifyStatus.JUSTIFIED:
            tracer.counts[f"{layer}.successes"] += 1

    return after


def _lookup(tracer: Tracer, result: Any, seconds: float) -> None:
    tracer.counts["knowledge.lookups"] += 1
    if result is not None:
        tracer.counts["knowledge.hits"] += 1


def _fault_latency(tracer: Tracer, result: Any, seconds: float) -> None:
    tracer.fault_ms.append(seconds * 1e3)


def install(dump_dir: str) -> Tracer:
    """Wrap every layer's entry point; campaign workers dump to ``dump_dir``."""
    global TRACER
    from repro.atpg import podem, unrolled
    from repro.atpg.hitec import SequentialTestGenerator
    from repro.campaign import merge, runner, worker
    from repro.ga.justification import GAStateJustifier
    from repro.hybrid import driver
    from repro.knowledge.store import StateKnowledge
    from repro.simulation import codegen
    from repro.simulation.fault_sim import FaultSimulator

    TRACER = Tracer()

    def wrap(cls: type, name: str, layer: str,
             after: Optional[After] = None) -> None:
        setattr(cls, name, _spanned(layer, getattr(cls, name), after))

    wrap(driver.HybridTestGenerator, "run", "hybrid")
    wrap(SequentialTestGenerator, "generate", "atpg.hitec", _fault_latency)
    podem.PodemEngine.solutions = _traced_solutions(podem.PodemEngine.solutions)
    wrap(unrolled.UnrolledModel, "__init__", "atpg.unrolled")
    wrap(GAStateJustifier, "justify", "ga.justify", _successes("ga.justify"))
    driver.justify_state = _spanned(
        "atpg.justify", driver.justify_state, _successes("atpg.justify")
    )
    wrap(FaultSimulator, "run", "sim.fault_sim")
    wrap(FaultSimulator, "grade_blocks", "sim.grade_blocks")
    codegen.kernel_for = _spanned("sim.codegen", codegen.kernel_for)
    for name in ("lookup_justified", "lookup_unjustifiable"):
        wrap(StateKnowledge, name, "knowledge", _lookup)
    for name in ("record_justified", "record_unjustifiable"):
        wrap(StateKnowledge, name, "knowledge")
    driver.fault_features = _spanned("policy.features", driver.fault_features)
    worker.run_item = _spanned("campaign.item", worker.run_item)
    # the merge grades with the recorder too, so sim.frames covers it
    runner.merge_campaign = _spanned(
        "campaign.merge",
        functools.partial(merge.merge_campaign, telemetry=TRACER.recorder),
    )
    merge.merge_run_reports = _spanned(
        "telemetry.merge_reports", merge.merge_run_reports
    )

    driver_init = driver.HybridTestGenerator.__init__

    @functools.wraps(driver_init)
    def init_with_recorder(self: Any, *args: Any, **kwargs: Any) -> None:
        if kwargs.get("telemetry") is None:
            kwargs["telemetry"] = TRACER.recorder
        driver_init(self, *args, **kwargs)

    driver.HybridTestGenerator.__init__ = init_with_recorder

    worker_main = runner.worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args: Any, **kwargs: Any) -> None:
        TRACER.clear()  # the fork copied the parent's totals
        compiled0 = dict(codegen.COMPILE_STATS)
        try:
            worker_main(*args, **kwargs)
        finally:
            dump = TRACER.to_dict()
            dump["compile"] = {
                k: codegen.COMPILE_STATS[k] - v for k, v in compiled0.items()
            }
            path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(dump, handle)

    runner.worker_main = traced_worker_main
    return TRACER


def worker_dumps(dump_dir: str) -> List[Dict[str, Any]]:
    """Every campaign worker's dumped totals."""
    dumps = []
    for name in sorted(os.listdir(dump_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(dump_dir, name), encoding="utf-8") as handle:
                dumps.append(json.load(handle))
    return dumps

"""Run scenarios and measure them.

For every scenario the harness measures host wall-clock time plus two
process-wide simulation counters snapshotted around the run:

* :meth:`Engine.global_events_executed` -- discrete events executed by
  every engine the scenario built (the sim-core hot path);
* :meth:`BPFProgram.global_runs` -- eBPF program executions, i.e. probe
  fires (the per-packet tracing hot path the paper's overhead claims
  are about).

From those it derives ``events_per_sec`` (host throughput of the event
loop) and ``ns_per_probe`` (host nanoseconds per probe fire), the two
numbers the regression gate compares against the committed baseline.

Every scenario first runs once untimed, so cold imports and first-call
compiles land outside the timed window.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.bench.discovery import BenchScenario, discover_scenarios
from repro.bench.presets import check_preset
from repro.ebpf.vm import BPFProgram
from repro.sim.engine import Engine


class HarnessError(RuntimeError):
    """A scenario misbehaved (bad return type, raised, ...)."""


class ScenarioResult(NamedTuple):
    """Measurements for one scenario run."""

    name: str
    preset: str
    wall_ns: int
    events_executed: int
    probe_fires: int
    metrics: Dict[str, object]  # scenario-reported, simulation-deterministic

    @property
    def events_per_sec(self) -> float:
        if self.wall_ns <= 0:
            return 0.0
        return self.events_executed / (self.wall_ns / 1e9)

    @property
    def ns_per_probe(self) -> Optional[float]:
        """Host ns per probe fire; None for scenarios without probes."""
        if self.probe_fires <= 0:
            return None
        return self.wall_ns / self.probe_fires


def run_scenario(
    scenario: BenchScenario, preset: str = "smoke", repeat: int = 1
) -> ScenarioResult:
    """Load and execute one scenario under ``preset``.

    With ``repeat > 1`` the scenario runs that many times and the
    fastest run wins: wall clock, counters, and scenario metrics are
    all taken from the best run, never mixed across runs.  Best-of-N
    is the standard defense against scheduler and allocator jitter --
    the minimum is the run with the least interference, so it is the
    most reproducible point of the distribution (see
    docs/BENCHMARKS.md).  One untimed warm-up run comes first: a cold
    run would also time lazy imports and first-call compiles."""
    check_preset(preset)
    if repeat < 1:
        raise HarnessError(f"repeat must be >= 1, got {repeat}")
    run = scenario.load()
    run(preset)  # warm-up, untimed
    best: Optional[ScenarioResult] = None
    for _ in range(repeat):
        # Keep collector pauses out of the timed window: collect what
        # earlier scenarios (or runs) left behind, then freeze the
        # surviving heap so full collections triggered *during* the
        # window scan only this run's own allocations -- without this, a
        # microbenchmark's number depends on how much live data the
        # scenarios before it happened to build.
        gc.collect()
        gc.freeze()
        events_before = Engine.global_events_executed()
        fires_before = BPFProgram.global_runs()
        try:
            started = time.perf_counter_ns()
            metrics = run(preset)
            wall_ns = time.perf_counter_ns() - started
        finally:
            gc.unfreeze()
        events = Engine.global_events_executed() - events_before
        fires = BPFProgram.global_runs() - fires_before
        if not isinstance(metrics, dict):
            raise HarnessError(
                f"scenario {scenario.name}: run(preset) must return a dict of "
                f"metrics, got {type(metrics).__name__}"
            )
        result = ScenarioResult(
            name=scenario.name,
            preset=preset,
            wall_ns=wall_ns,
            events_executed=events,
            probe_fires=fires,
            metrics=metrics,
        )
        if best is None or result.wall_ns < best.wall_ns:
            best = result
    assert best is not None  # repeat >= 1
    return best


def run_suite(
    preset: str = "smoke",
    only: Optional[List[str]] = None,
    bench_dir: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
    repeat: int = 1,
) -> List[ScenarioResult]:
    """Discover and run scenarios; ``progress`` gets one line per scenario."""
    check_preset(preset)
    results = []
    for scenario in discover_scenarios(bench_dir, only=only):
        result = run_scenario(scenario, preset, repeat=repeat)
        results.append(result)
        if progress is not None:
            nspp = result.ns_per_probe
            tail = f"{nspp:9.0f} ns/probe" if nspp is not None else "  (no probes)"
            progress(
                f"{result.name:32s} {result.wall_ns / 1e9:7.2f}s  "
                f"{result.events_executed:>9d} events  "
                f"{result.events_per_sec / 1e3:8.1f}k ev/s  {tail}"
            )
    return results

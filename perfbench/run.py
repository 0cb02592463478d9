"""Benchmark entry point: repeated fresh-process samples of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ovs_traced --seed 1 --seconds 40 --trace 0

``--trace 0`` runs untraced samples until ``--seconds`` have passed
(at least ``MIN_SAMPLES``) and reports the end-to-end metrics as
medians over the samples.  ``--trace 1`` runs one untraced sample and
then traced samples (layers.py) until the time is up, and reports the
per-layer metrics.  Each sample is a fresh interpreter running
``sample.py``, so process-wide caches start cold in every sample, as
in a user's ``repro`` run.  Every time a sample reports is scaled to
the reference host speed (``host_scale``, calibrate.py) before the
medians are taken; the unscaled medians are printed too.

Every sample's output is checked: the workload's own sanity checks,
the same answer digest in every sample (traced or not), and the digest
recorded in ``digests.json`` when the seed has one.  Human-readable
lines name every metric with its unit and sample count; the last line
is one JSON object.  Exits 1 if any check failed, 2 if the checkout
holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Listed here rather than imported from workloads.py: this file imports
# no repro code, so it can report a checkout without src/repro cleanly.
WORKLOADS = ("ovs_traced", "rpc_query", "fleet_1k")
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from calibrate import ELASTICITY, NOMINAL_S  # noqa: E402
from layers import LAYERS, UNATTRIBUTED  # noqa: E402


def run_sample(workload: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sample.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        # One string-hash seed for every sample: dict and set layouts then
        # stop varying from process to process, and so do their timings.
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"sample of {workload} (seed {seed}) failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_scale(sample: dict) -> float:
    """Factor that brings a sample's times to the reference host speed
    (calibrate.py): below 1 when the host ran slow during the sample."""
    return (NOMINAL_S / sample["reference_s"]) ** ELASTICITY


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def check_samples(samples: List[dict], recorded: Dict[str, str]):
    """(attempted, failed, problems): one output check per sample plus
    one result check per query."""
    problems = []
    attempted = failed = 0
    expected = recorded.get(str(samples[0]["seed"]), samples[0]["digest"])
    for sample in samples:
        attempted += 1 + len(sample["query_s"])
        failed += sample["queries_failed"]
        bad = [name for name, ok in sample["checks"].items() if not ok]
        if sample["digest"] != expected:
            bad.append(f"digest {sample['digest']} != {expected}")
        if bad:
            failed += 1
            problems.append(f"trace={sample['trace']}: " + "; ".join(bad))
    return attempted, failed, problems


def end_to_end(samples: List[dict]) -> Dict[str, tuple]:
    queries = [q * 1e3 * host_scale(s) for s in samples for q in s["query_s"]]
    n = len(samples)

    def med(key):
        return statistics.median(s[key] * host_scale(s) for s in samples)

    return {
        "setup_s": (med("setup_s"), "s", n),
        "wall_s": (med("wall_s"), "s", n),
        "virt_ms_per_host_s": (
            statistics.median(s["virt_ms"] / (s["sim_s"] * host_scale(s)) for s in samples),
            "ms/s", n,
        ),
        "query_p50_ms": (percentile(queries, 0.5), "ms", len(queries)),
        "query_p90_ms": (percentile(queries, 0.9), "ms", len(queries)),
        "peak_rss_mb": (statistics.median(s["rss_mb"] for s in samples), "MB", n),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, tuple]:
    n = len(traced)

    def med(fn):
        return statistics.median(fn(sample) for sample in traced)

    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (med(lambda s: s["layers"][layer]["calls"]), "count", n)
        metrics[f"{layer}.self_s"] = (
            med(lambda s: s["layers"][layer]["self_s"] * host_scale(s)), "s", n,
        )
        metrics[f"{layer}.share"] = (
            med(lambda s: s["layers"][layer]["self_s"] / s["traced_s"]), "ratio", n,
        )
    metrics[f"{UNATTRIBUTED}.share"] = (
        med(lambda s: s["layers"][UNATTRIBUTED]["self_s"] / s["traced_s"]), "ratio", n,
    )
    counters = traced[0]["counters"]
    metrics.update(
        {
            "sim.engine.events_per_pkt": (
                _ratio(counters["events"], counters["packets"]), "ratio", n),
            "ebpf.hooks.attached_ratio": (
                _ratio(counters["hook_fires_attached"], counters["hook_fires"]), "ratio", n),
            "ebpf.vm.runs": (counters["ebpf_runs"], "count", n),
            "ebpf.vm.emit_ratio": (
                _ratio(counters.get("ring_appended", 0) + counters.get("agent_dropped", 0),
                       counters["ebpf_runs"]),
                "ratio", n),
            "ebpf.compile_cache_hit_ratio": (
                _ratio(counters["compile_cache_hits"],
                       counters["compile_cache_hits"] + counters["compile_cache_misses"]),
                "ratio", n),
            "core.agent.drop_ratio": (
                _ratio(counters.get("agent_dropped", 0),
                       counters.get("ring_appended", 0) + counters.get("agent_dropped", 0)),
                "ratio", n),
            "core.tracedb.rows": (counters.get("tracedb_rows", 0), "count", n),
            "core.tracedb.index_rebuilds": (
                counters.get("tracedb_index_rebuilds", 0), "count", n),
            "tracing.forest_cache_hit_ratio": (
                _ratio(counters.get("forest_cache_hits", 0),
                       counters.get("forest_cache_hits", 0) + counters.get("forest_rebuilds", 0)),
                "ratio", n),
            "sim.coordinator.rounds": (counters.get("coordinator_rounds", 0), "count", n),
            "trace_overhead": (
                med(lambda s: s["wall_s"] * host_scale(s))
                / statistics.median(u["wall_s"] * host_scale(u) for u in untraced),
                "ratio", n),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vNetTracer reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"no src/repro under {ROOT}: nothing to benchmark\n")
        return 2
    with open(os.path.join(HERE, "digests.json")) as handle:
        recorded = json.load(handle)["digests"].get(args.workload, {})

    deadline = time.monotonic() + args.seconds
    untraced: List[dict] = []
    traced: List[dict] = []
    if args.trace:
        untraced.append(run_sample(args.workload, args.seed, trace=False))
        while not traced or time.monotonic() < deadline:
            traced.append(run_sample(args.workload, args.seed, trace=True))
    else:
        while len(untraced) < MIN_SAMPLES or time.monotonic() < deadline:
            untraced.append(run_sample(args.workload, args.seed, trace=False))

    attempted, failed, problems = check_samples(untraced + traced, recorded)
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced)
    metrics["failed_frac"] = (failed / attempted, "ratio", attempted)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced samples")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, (value, unit, count) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} n={count}")
    samples = untraced + traced
    print(f"unscaled medians: wall_s {statistics.median(s['wall_s'] for s in samples):.6g} s, "
          f"setup_s {statistics.median(s['setup_s'] for s in samples):.6g} s; "
          f"reference round {statistics.median(s['reference_s'] for s in samples) * 1e3:.4g} ms "
          f"against {NOMINAL_S * 1e3:.4g} ms nominal")
    if traced:
        print(f"spans written to {traced[-1]['spans_file']} ({traced[-1]['spans']} spans)")
    del metrics["failed_frac"]  # carried by "attempted"/"failed": a metric must never be 0
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _count) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark sample: one workload run in this fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/sample.py --workload ovs_traced --seed 1 --trace 0

Every ``repro`` module is imported before the clock starts, so import
time is never measured; process-wide state (the eBPF program cache,
class-level counters) starts where a user's ``repro`` run starts.
The host-speed reference loop (calibrate.py) is timed just before and
just after the workload; peak memory is read before the second timing.
With ``--trace 1`` every ``repro`` function is wrapped first (see
layers.py), the run's spans are written to ``.perfbench/`` and the
per-layer totals are added to the output.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.ebpf.probes import HookRegistry  # noqa: E402
from repro.ebpf.vm import BPFProgram, program_cache_stats  # noqa: E402
from repro.net.packet import Packet  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402

SPAN_DIR = ".perfbench"


def _count_hooks_and_packets(counts: dict) -> None:
    """Count hook fires (and those with an attachment) and Packet
    constructions; installed outside the span wrappers."""
    fire = HookRegistry.fire
    has_attachments = HookRegistry.has_attachments.__wrapped__
    packet_init = Packet.__init__

    def counting_fire(self, event):
        counts["hook_fires"] += 1
        if has_attachments(self, event.hook):
            counts["hook_fires_attached"] += 1
        return fire(self, event)

    def counting_init(self, *args, **kwargs):
        counts["packets"] += 1
        packet_init(self, *args, **kwargs)

    HookRegistry.fire = counting_fire
    Packet.__init__ = counting_init


def _global_counters() -> dict:
    return {
        "events": Engine.global_events_executed(),
        "ebpf_runs": BPFProgram.global_runs(),
    }


def run_sample(name: str, seed: int, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    recorder = None
    counts = {"hook_fires": 0, "hook_fires_attached": 0, "packets": 0}
    if trace:
        recorder = layers.SpanRecorder()
        layers.instrument(recorder)
        _count_hooks_and_packets(counts)
    reference = calibrate.reference_rounds()
    before = _global_counters()
    start = time.perf_counter()
    if recorder is not None:
        recorder.begin()
    outcome = workload(seed)
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.finish()
    after = _global_counters()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference += calibrate.reference_rounds()

    counters = dict(outcome.counters)
    counters.update({key: after[key] - before[key] for key in after})
    cache = program_cache_stats()
    counters["compile_cache_hits"] = cache["hits"]
    counters["compile_cache_misses"] = cache["misses"]
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "wall_s": wall_s,
        "setup_s": outcome.setup_s,
        "sim_s": outcome.sim_s,
        "virt_ms": outcome.virt_ms,
        "query_s": outcome.query_s,
        "queries_failed": outcome.queries_failed,
        "digest": workloads.digest(outcome.answer),
        "checks": outcome.checks,
        "counters": counters,
        "reference_s": statistics.median(reference),
        "rss_mb": rss_mb,
    }
    if recorder is not None:
        counters.update(counts)
        result["layers"] = recorder.layer_totals()
        result["traced_s"] = recorder.end[0] - recorder.start[0]
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"spans-{name}.bin")
        recorder.write(path)
        result["spans"] = len(recorder.layer)
        result["spans_file"] = path
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    layers.import_repro()
    print(json.dumps(run_sample(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads, built from the repo's public entry points.

Each workload is a function ``(seed) -> Outcome`` that builds its
scene, simulates, and answers its question.  Every workload gets only
its seed; sizes are the constants below (why each workload exists is
in NOTES.md).  Workloads time their own phases:

* ``setup_s``: scene, graph or fleet build plus tracer deploy, up to
  the first simulated event;
* ``sim_s``: host time inside ``Engine.run`` (or the coordinator run),
  against ``virt_ms`` of virtual time that the workload fixes;
* ``query_s``: one entry per read query, each timed on its own.

The answer is a plain dict that ``sample.py`` digests and compares.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List

from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.core.session import TracerSession
from repro.experiments import get_scenario
from repro.experiments.macro_fleet import FLEET_CHAIN, FleetConfig
from repro.experiments.ovs_case import IPERF_RATE_PPS, SOCKPERF_PORT, ovs_costs
from repro.experiments.rpc_case import BULK_PORT, DEFAULT_BULK_BYTES, RPC_CHAIN
from repro.net.packet import IPPROTO_UDP
from repro.net.stack import HOOK_SKB_COPY_DATAGRAM, HOOK_UDP_SEND_SKB
from repro.services import RPC_PORT
from repro.sim import new_engine
from repro.sim.coordinator import ShardCoordinator, ShardEngine
from repro.sim.engine import Engine
from repro.streaming import canonical_json
from repro.tracing.export import chrome_trace_json
from repro.workloads.iperf import IperfUDPClient, IperfUDPServer
from repro.workloads.sockperf import SockperfClient, SockperfServer
from repro.workloads.stats import summarize_latencies

MS = 1_000_000

# ovs_traced: Case Study I, Case III -- iPerf on VM0 and VM1 (two busy
# OVS ingress ports), Sockperf VM0 -> VM2 traced at four points.
OVS_IPERF_VMS = (0, 1)
OVS_WARMUP_NS = 4 * MS
OVS_SOCKPERF_NS = 16 * MS
OVS_SLICE_NS = 1 * MS
OVS_SOCKPERF_MPS = 5000

# rpc_query: the four-tier RPC graph, advanced in slices with a fixed
# read mix after each slice's collect(); a third into the load, a TCP
# bulk transfer congests the client -> lb0 edge, as in run_rpc_case.
RPC_REQUESTS = 100
RPC_INTERVAL_NS = 1 * MS
RPC_SYNC_NS = 40 * MS
RPC_SETTLE_NS = 30 * MS
RPC_SLICE_NS = 2 * MS
RPC_WINDOW_NS = 10 * MS

# fleet_1k: 1000 nodes on the in-process coordinator at 16 shards;
# the shard count defines the workload.
FLEET_SHARDS = 16
# Read windows per tick.  Only ten of the 23 ticks hold rows, so with
# one window per tick 43% of the reads return rows and the median sits
# where empty reads give way to full ones; with two, 22% do, and both
# the median (empty reads) and p90 (full reads) sit clear of that step.
FLEET_WINDOWS_PER_TICK = 2


class Outcome:
    """What one workload run measured and answered."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.sim_s = 0.0
        self.virt_ms = 0.0
        self.query_s: List[float] = []
        self.queries_failed = 0
        self.answer: Dict[str, object] = {}
        self.checks: Dict[str, bool] = {}
        self.counters: Dict[str, float] = {}

    def run_engine(self, engine: Engine, until_ns: int) -> None:
        start = time.perf_counter()
        engine.run(until=until_ns)
        self.sim_s += time.perf_counter() - start

    def query(self, fn: Callable, *args):
        """Time one read; a read that returns ``None`` failed."""
        start = time.perf_counter()
        result = fn(*args)
        self.query_s.append(time.perf_counter() - start)
        if result is None:
            self.queries_failed += 1
        return result


def _summary(latencies: List[int]) -> list:
    return list(summarize_latencies(latencies)) if latencies else []


def _tracer_counters(out: Outcome, tracer: VNetTracer) -> None:
    obs = tracer.obs
    appended = obs.total("vnt_ring_appended_total")
    out.counters.update(
        {
            "ring_appended": appended,
            "agent_dropped": sum(a.dropped_records() for a in tracer.agents.values()),
            "tracedb_rows": tracer.db.rows_inserted,
            "tracedb_index_rebuilds": tracer.db.index_rebuilds,
        }
    )
    if "vnt_tracing_forest_rebuilds_total" in obs.names():
        out.counters["forest_rebuilds"] = obs.total("vnt_tracing_forest_rebuilds_total")
        out.counters["forest_cache_hits"] = obs.total("vnt_tracing_forest_cache_hits_total")


# -- ovs_traced ---------------------------------------------------------------


def ovs_traced(seed: int) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    build = get_scenario("ovs_case").build_fn()
    scene = build(seed=seed, num_vms=3, costs=ovs_costs())
    engine = scene.engine
    server_index = len(scene.vms) - 1
    server_vm, server_ip = scene.vms[server_index], scene.vm_ips[server_index]

    SockperfServer(server_vm.node, server_ip, port=SOCKPERF_PORT)
    sockperf = SockperfClient(
        scene.vms[0].node, scene.vm_ips[0], server_ip, server_port=SOCKPERF_PORT,
        mps=OVS_SOCKPERF_MPS, mode="under-load", cpu_index=1,
    )
    iperf_servers, iperf_clients = [], []
    for stream, vm_index in enumerate(OVS_IPERF_VMS):
        port = 5201 + stream
        iperf_servers.append(IperfUDPServer(server_vm.node, server_ip, port=port, cpu_index=2))
        iperf_clients.append(
            IperfUDPClient(
                scene.vms[vm_index].node, scene.vm_ips[vm_index], server_ip,
                server_port=port, local_port=30000 + stream,
                rate_pps=IPERF_RATE_PPS, cpu_index=2 + stream % 2,
            )
        )

    tracer = VNetTracer(engine)
    for node in (scene.vms[0].node, scene.host.node, server_vm.node):
        tracer.add_agent(node)
    chain = ["vm0:udp_send_skb", "host:vnet0", f"host:vnet{server_index}", "server:skb_copy"]
    hooks = [
        (scene.vms[0].node, "kprobe:udp_send_skb"),
        (scene.host.node, "dev:vnet0"),
        (scene.host.node, f"dev:vnet{server_index}"),
        (server_vm.node, "kprobe:skb_copy_datagram_iovec"),
    ]
    tracer.deploy(
        TracingSpec(
            rule=FilterRule(dst_port=SOCKPERF_PORT, protocol=IPPROTO_UDP),
            tracepoints=[
                TracepointSpec(node=node.name, hook=hook, label=label)
                for (node, hook), label in zip(hooks, chain)
            ],
        )
    )
    end_ns = OVS_WARMUP_NS + OVS_SOCKPERF_NS + OVS_SLICE_NS  # one slice for the last replies
    for client in iperf_clients:
        client.start(OVS_WARMUP_NS + OVS_SOCKPERF_NS, start_delay_ns=MS // 2)
    sockperf.start(OVS_SOCKPERF_NS, start_delay_ns=OVS_WARMUP_NS)
    out.setup_s = time.perf_counter() - start

    segments = []
    for until in range(OVS_SLICE_NS, end_ns + 1, OVS_SLICE_NS):
        out.run_engine(engine, until)
        tracer.collect()
        segments = out.query(tracer.decompose, chain)
    out.virt_ms = end_ns / MS

    out.answer = {
        "sockperf": list(sockperf.summary()),
        "decomposition": [_summary(segment.latencies_ns) for segment in segments],
        "iperf_goodputs_bps": [server.goodput_bps() for server in iperf_servers],
        "queue_drops": sum(port.queue_drops for port in scene.ovs.ports),
    }
    out.checks = {
        "sockperf replies": sockperf.received > 0,
        "every segment decomposed": all(segment.latencies_ns for segment in segments),
    }
    _tracer_counters(out, tracer)
    return out


# -- rpc_query ----------------------------------------------------------------


def rpc_query(seed: int) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    graph = get_scenario("rpc_case").build_fn()()
    engine = new_engine()
    session = TracerSession(engine)
    tracer = session.tracer
    session.with_service_graph(graph, seed=seed)
    deployment = session.service_deployment
    session.with_streaming(RPC_CHAIN, window_ns=RPC_WINDOW_NS, emit_interval_ns=RPC_WINDOW_NS)
    front = deployment.edge("client0", "lb0")
    client_node = deployment.service("client").node
    lb_node = deployment.service("lb").node
    session.with_clock_sync(
        client_node, front.caller_ip, f"dev:{front.caller_device}",
        lb_node, front.callee_ip, f"dev:{front.callee_device}",
        samples=30,
    )
    tracepoints = []
    for node in deployment.nodes:
        tracepoints.append(
            TracepointSpec(node=node.name, hook=HOOK_UDP_SEND_SKB, label=f"{node.name}:send")
        )
        tracepoints.append(
            TracepointSpec(node=node.name, hook=HOOK_SKB_COPY_DATAGRAM, label=f"{node.name}:recv")
        )
    session.deploy(
        TracingSpec(
            rule=FilterRule(dst_port=RPC_PORT, protocol=IPPROTO_UDP), tracepoints=tracepoints
        )
    )
    deployment.start_load(RPC_REQUESTS, RPC_INTERVAL_NS, start_ns=RPC_SYNC_NS)
    lb_node.tcp.listen(front.callee_ip, BULK_PORT)

    def start_bulk() -> None:
        conn = client_node.tcp.connect(front.caller_ip, front.callee_ip, BULK_PORT)
        conn.on_established = lambda c: c.send_app_bytes(DEFAULT_BULK_BYTES)

    engine.schedule(RPC_SYNC_NS + RPC_REQUESTS * RPC_INTERVAL_NS // 3, start_bulk)
    out.setup_s = time.perf_counter() - start

    # Reads start once clock sync is done; the mix per slice is one
    # decompose, the slice's new roots (two) as span_tree lookups, one
    # rpc_forest + chrome export and one window-frame read, so the
    # median lands among the lookups and p90 among the forest exports.
    load_end_ns = RPC_SYNC_NS + RPC_REQUESTS * RPC_INTERVAL_NS
    end_ns = load_end_ns + RPC_SETTLE_NS
    out.run_engine(engine, RPC_SYNC_NS - 1)
    seen_roots: set = set()
    for until in range(RPC_SYNC_NS - 1 + RPC_SLICE_NS, load_end_ns, RPC_SLICE_NS):
        out.run_engine(engine, until)
        session.collect()
        out.query(session.decompose, RPC_CHAIN)
        roots = [tid for tid in tracer.db.trace_ids_at(RPC_CHAIN[0]) if tid not in seen_roots]
        for tid in roots:
            out.query(tracer.span_tree, tid)
        seen_roots.update(roots)
        out.query(lambda: chrome_trace_json(tracer.rpc_forest(deployment.links)))
        out.query(session.window_frames)
    out.run_engine(engine, end_ns)
    session.collect()
    out.virt_ms = end_ns / MS

    session.streaming.close_all()
    forest = tracer.rpc_forest(deployment.links)
    chrome = chrome_trace_json(forest)
    out.answer = {
        "completed_requests": deployment.completed_requests,
        "links": sorted(deployment.links.items()),
        "trees": len(forest.trees),
        "spans": forest.span_count(),
        "chrome_sha256": hashlib.sha256(chrome.encode()).hexdigest(),
        "streaming_sha256": hashlib.sha256(session.streaming.summary_json().encode()).hexdigest(),
    }
    out.checks = {
        "every request completed": deployment.completed_requests == RPC_REQUESTS,
        "one tree per request": len(forest.trees) == RPC_REQUESTS,
    }
    _tracer_counters(out, tracer)
    return out


# -- fleet_1k -----------------------------------------------------------------


def fleet_1k(seed: int) -> Outcome:
    """``run_macro_fleet`` builds its shards inside the coordinator
    run, so set-up ends and simulation starts at the first shard
    ``run_until`` call; the two boundary timers below are the only
    instrumentation of an untraced run."""
    out = Outcome()
    marks: Dict[str, float] = {}
    coordinator_run = ShardCoordinator.run
    run_until = ShardEngine.run_until

    def timed_coordinator_run(self, until):
        result = coordinator_run(self, until)
        marks["run_end"] = time.perf_counter()
        return result

    def first_run_until(self, horizon):
        marks.setdefault("first_round", time.perf_counter())
        return run_until(self, horizon)

    run_fleet = get_scenario("macro_fleet").run_fn()
    config = FleetConfig(seed=seed)
    ShardCoordinator.run = timed_coordinator_run
    ShardEngine.run_until = first_run_until
    try:
        start = time.perf_counter()
        result = run_fleet(config, shards=FLEET_SHARDS)
    finally:
        ShardCoordinator.run = coordinator_run
        ShardEngine.run_until = run_until
    out.setup_s = marks["first_round"] - start
    out.sim_s = marks["run_end"] - marks["first_round"]
    out.virt_ms = config.end_ns / MS

    # Queries: every tracepoint's rows in every half-tick window.
    db = result.db
    rows = 0
    window_ns = config.tick_ns // FLEET_WINDOWS_PER_TICK
    for window in range((config.ticks + 3) * FLEET_WINDOWS_PER_TICK):
        for label in FLEET_CHAIN:
            rows += len(out.query(
                db.time_range, label, window * window_ns, (window + 1) * window_ns - 1))
    complete = out.query(db.complete_traces, FLEET_CHAIN)

    out.answer = {
        "digest16": result.digest16,
        "window_rows": rows,
        "complete_traces": len(complete),
    }
    out.checks = {
        "rows merged": db.rows_inserted > 0,
        "every rack synced": result.metrics["skew_racks_recovered"] == config.racks - 1,
    }
    out.counters.update(
        {
            "tracedb_rows": db.rows_inserted,
            "tracedb_index_rebuilds": db.index_rebuilds,
            "coordinator_rounds": result.metrics["rounds"],
        }
    )
    return out


WORKLOADS: Dict[str, Callable[[int], Outcome]] = {
    "ovs_traced": ovs_traced,
    "rpc_query": rpc_query,
    "fleet_1k": fleet_1k,
}


def digest(answer: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_json(answer).encode()).hexdigest()[:16]


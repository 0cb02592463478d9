"""Incremental span assembly: a warm assembler must export what a cold one does.

`SpanAssembler` keeps a per-trace tree memo (valid while a trace's row
count is unchanged), reuses unchanged `rpc` wrappers, and
`chrome_trace_json` reuses the serialized track of an assembled tree
that kept its place in the forest (docs/TIMELINES.md, "Incremental
assembly").  Every test here drives a database forward in steps and,
after each step, byte-compares the warm assembler's Chrome / OTLP /
text exports with a fresh `SpanAssembler` and with the per-row oracle.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FilterRule, TracingSpec
from repro.core.records import TraceRecord
from repro.core.session import TracerSession
from repro.core.tracedb import TraceDB
from repro.experiments.rpc_case import (
    BULK_PORT,
    RPC_CHAIN,
    _tracepoints,
    default_service_graph,
)
from repro.net.packet import IPPROTO_UDP
from repro.services import RPC_PORT
from repro.sim import ShardedEngine
from repro.tracing.export import (
    chrome_trace_dict,
    chrome_trace_json,
    otlp_json,
    timeline_text,
)
from repro.tracing.reconstruct import SpanAssembler, build_rpc_forest, legacy_forest
from repro.tracing.spans import Span, SpanForest, SpanTree

_CANONICAL = {"sort_keys": True, "separators": (",", ":")}
MS = 1_000_000


def _canonical_chrome(forest) -> str:
    return json.dumps(chrome_trace_dict(forest), **_CANONICAL) + "\n"


def _exports(forest):
    return (
        chrome_trace_json(forest),
        otlp_json(forest),
        timeline_text(forest, limit=None),
    )


def assert_rpc_matches_cold(warm: SpanAssembler, links, chain=None) -> None:
    """Warm RPC forest == fresh assembler == per-row oracle, on every export."""
    db = warm.db
    forest = warm.rpc_forest(links, chain=chain)
    exported = _exports(forest)
    assert exported == _exports(SpanAssembler(db).rpc_forest(links, chain=chain))
    oracle = build_rpc_forest(db, links, chain=chain)
    assert exported == _exports(oracle)
    assert exported[0] == _canonical_chrome(oracle)


def assert_forest_matches_cold(warm: SpanAssembler, chain, complete_only=True) -> None:
    db = warm.db
    forest = warm.forest(chain=chain, complete_only=complete_only)
    exported = _exports(forest)
    fresh = SpanAssembler(db).forest(chain=chain, complete_only=complete_only)
    assert exported == _exports(fresh)
    assert exported == _exports(legacy_forest(db, None, chain, complete_only=complete_only))


# ---------------------------------------------------------------------------
# rpc_case driven in slices, at 1 and 4 shards.
# ---------------------------------------------------------------------------


def _sliced_rpc_run(shards: int, requests: int = 12, slice_ns: int = 2 * MS):
    """Run the rpc_case topology in ``slice_ns`` steps, collecting and
    comparing warm against cold exports after every step.  Returns the
    tracer, the links and the per-slice Chrome documents."""
    engine = ShardedEngine(shards=shards)
    session = TracerSession(engine)
    tracer = session.tracer
    session.with_service_graph(default_service_graph(), seed=21)
    deployment = session.service_deployment
    front = deployment.edge("client0", "lb0")
    client_node = deployment.service("client").node
    lb_node = deployment.service("lb").node
    session.with_clock_sync(
        client_node,
        front.caller_ip,
        f"dev:{front.caller_device}",
        lb_node,
        front.callee_ip,
        f"dev:{front.callee_device}",
        samples=30,
    )
    session.deploy(
        TracingSpec(
            rule=FilterRule(dst_port=RPC_PORT, protocol=IPPROTO_UDP),
            tracepoints=_tracepoints(deployment),
        )
    )
    sync_ns = 40 * MS
    deployment.start_load(requests, MS, start_ns=sync_ns)
    lb_node.tcp.listen(front.callee_ip, BULK_PORT)

    def start_bulk() -> None:
        conn = client_node.tcp.connect(front.caller_ip, front.callee_ip, BULK_PORT)
        conn.on_established = lambda c: c.send_app_bytes(100_000)

    engine.schedule(sync_ns + requests * MS // 3, start_bulk)
    engine.run(until=sync_ns - 1)
    # One warm assembler per chain filter: the memo holds one filter.
    warm = tracer.span_assembler()
    warm_chain = SpanAssembler(tracer.db)
    docs = []
    for until in range(sync_ns - 1 + slice_ns, sync_ns + requests * MS + 20 * MS, slice_ns):
        engine.run(until=until)
        session.collect()
        assert_rpc_matches_cold(warm, deployment.links)
        assert_forest_matches_cold(warm_chain, RPC_CHAIN)
        docs.append(chrome_trace_json(tracer.rpc_forest(deployment.links)))
    return tracer, deployment.links, docs


class TestSlicedRpcCase:
    def test_warm_matches_cold_at_1_and_4_shards(self):
        runs = [_sliced_rpc_run(shards) for shards in (1, 4)]
        (tracer, links, docs), (_, links4, docs4) = runs
        assert docs == docs4  # shard-count independence survives the memo
        assert links == links4
        assembler = tracer.span_assembler()
        # The memo did its job: most root trees were not reassembled.
        assert assembler.trees_reused > assembler.trees_built // 2
        final = tracer.rpc_forest(links)
        assert len(final.trees) == 12


# ---------------------------------------------------------------------------
# Targeted cases on a hand-fed database.
# ---------------------------------------------------------------------------

_LABELS = {0: "send", 1: "recv"}


def _insert(db, trace_id, tp, ts, node=None):
    node = node or ("tx" if tp == 0 else "rx")
    record = TraceRecord(
        trace_id=trace_id, tracepoint_id=tp, timestamp_ns=ts, packet_len=64, cpu=tp
    )
    db.insert(node, _LABELS[tp], record)


def _request(db, trace_id, ts):
    _insert(db, trace_id, 0, ts)
    _insert(db, trace_id, 1, ts + 5_000)


class TestTargetedCases:
    def test_clock_skew_change_mid_run(self):
        db = TraceDB()
        links = {2: (1,), 3: (1,)}
        for tid in (1, 2, 3):
            _request(db, tid, tid * 100_000)
        warm = SpanAssembler(db)
        assert_rpc_matches_cold(warm, links)
        before = chrome_trace_json(warm.rpc_forest(links))
        db.set_clock_skew("rx", -2_000)
        assert_rpc_matches_cold(warm, links)
        assert chrome_trace_json(warm.rpc_forest(links)) != before

    def test_late_row_for_old_trace(self):
        db = TraceDB()
        links = {2: (1,), 3: (1,)}
        for tid in (1, 2, 3):
            _request(db, tid, tid * 100_000)
        warm = SpanAssembler(db)
        warm_chain = SpanAssembler(db)
        assert_rpc_matches_cold(warm, links)
        assert_forest_matches_cold(warm_chain, ["send", "recv"])
        # An early duplicate for trace 3 reorders trace 1's kids.
        _insert(db, 3, 0, 150_000, node="tx2")
        assert_rpc_matches_cold(warm, links)
        assert_forest_matches_cold(warm_chain, ["send", "recv"])
        assert_forest_matches_cold(warm_chain, ["send", "recv"], complete_only=False)

    def test_child_gains_row_under_unchanged_parent(self):
        db = TraceDB()
        links = {2: (1,), 3: (2,)}
        _request(db, 1, 100_000)
        _request(db, 2, 200_000)
        _insert(db, 3, 0, 300_000)
        warm = SpanAssembler(db)
        assert_rpc_matches_cold(warm, links)
        _insert(db, 3, 1, 390_000)  # no new link: only the grandchild changed
        assert_rpc_matches_cold(warm, links)
        assert warm.trees_reused == 0

    def test_trace_changed_while_unreachable(self):
        db = TraceDB()
        links = {2: (1,), 3: (2,)}
        for tid in (1, 2, 3):
            _request(db, tid, tid * 100_000)
        warm = SpanAssembler(db)
        assert_rpc_matches_cold(warm, links)
        links[1] = (2,)  # a 1 <-> 2 cycle (an ID collision) hides 1, 2 and 3
        _insert(db, 3, 1, 390_000, node="rx2")
        assert_rpc_matches_cold(warm, links)
        assert warm.rpc_forest(links).trees == []
        del links[1]  # 3 is reachable again, with the row it gained meanwhile
        assert_rpc_matches_cold(warm, links)

    def test_link_after_both_traces_seen(self):
        db = TraceDB()
        links = {}
        for tid in (1, 2):
            _request(db, tid, tid * 100_000)
        warm = SpanAssembler(db)
        assert_rpc_matches_cold(warm, links)
        assert len(warm.rpc_forest(links).trees) == 2
        links[2] = (1,)
        assert_rpc_matches_cold(warm, links)
        assert len(warm.rpc_forest(links).trees) == 1
        links[2] = (9,)  # re-pointed at an unseen parent: a root again
        assert_rpc_matches_cold(warm, links)
        del links[2]
        assert_rpc_matches_cold(warm, links)

    def test_root_becomes_child_and_pids_shift(self):
        db = TraceDB()
        links = {2: (1,), 4: (3,)}
        _request(db, 5, 50_000)
        _request(db, 2, 200_000)  # parent 1 not seen yet: a root
        _request(db, 4, 400_000)
        warm = SpanAssembler(db)
        assert_rpc_matches_cold(warm, links)
        assert [t.trace_id for t in warm.rpc_forest(links)] == [5, 2, 4]
        _request(db, 1, 100_000)  # 2 moves under 1; 4 shifts from pid 3
        assert_rpc_matches_cold(warm, links)
        assert [t.trace_id for t in warm.rpc_forest(links)] == [5, 4, 1]

    def test_chain_change(self):
        db = TraceDB()
        links = {2: (1,)}
        for tid in (1, 2):
            _request(db, tid, tid * 100_000)
        _insert(db, 1, 1, 190_000, node="rx")
        warm = SpanAssembler(db)
        assert_rpc_matches_cold(warm, links, chain=["send", "recv"])
        assert_forest_matches_cold(warm, ["send"], complete_only=False)
        assert_rpc_matches_cold(warm, links, chain=["send"])
        assert_rpc_matches_cold(warm, links)
        assert_forest_matches_cold(warm, ["send", "recv"])

    def test_tree_lookup_reads_but_does_not_fill_the_memo(self):
        db = TraceDB()
        for tid in (1, 2):
            _request(db, tid, tid * 100_000)
        warm = SpanAssembler(db)
        first = warm.tree(1)
        assert warm.tree(1) is not first  # a point lookup keeps no state
        assert warm.trees_reused == 0
        built = warm.forest().tree_for(1)
        assert warm.tree(1) is built  # served from the forest's memo
        assert warm.trees_reused == 1
        _insert(db, 1, 1, 108_000, node="rx2")
        again = warm.tree(1)
        assert again is not built  # gained a row: reassembled
        assert chrome_trace_json(SpanForest(trees=[again])) == chrome_trace_json(
            SpanForest(trees=[SpanAssembler(db).tree(1)])
        )
        assert warm.tree(1, chain=["send"]) is None  # other filter: no memo

    def test_hand_built_tree_mutated_between_exports_rerenders(self):
        root = Span("packet:0x1", "packet", "tx", 0, 10_000, attributes={"x": 1})
        forest = SpanForest(trees=[SpanTree(trace_id=1, root=root, record_count=2)])
        first = chrome_trace_json(forest)
        assert first == _canonical_chrome(forest)
        root.attributes["x"] = 2
        root.end_ns = 12_000
        second = chrome_trace_json(forest)
        assert second != first
        assert second == _canonical_chrome(forest)


# ---------------------------------------------------------------------------
# The Chrome event-prefix memo keys on value types, not just values.
# ---------------------------------------------------------------------------


def test_prefix_memo_tells_equal_values_of_different_types_apart():
    values = [1, 1.0, True, 0, 0.0, False, "1", None, (1, 2), (1.0, 2)]
    trees = [
        SpanTree(
            trace_id=index + 1,
            root=Span("s", "packet", "n", 0, 1_000, attributes={"x": value}),
            record_count=1,
        )
        for index, value in enumerate(values)
    ]
    forest = SpanForest(trees=trees)
    # Twice: the second pass runs against a warm prefix memo.
    assert chrome_trace_json(forest) == _canonical_chrome(forest)
    assert chrome_trace_json(forest) == _canonical_chrome(forest)
    args = [event["args"] for event in json.loads(chrome_trace_json(forest))["traceEvents"]]
    rendered = [arg["x"] for arg in args if "x" in arg]
    assert [type(value) for value in rendered[:3]] == [int, float, bool]


# ---------------------------------------------------------------------------
# Property: any interleaving of rows, links, skews and reads keeps the
# warm assembler byte-identical to a cold one.
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("row"),
            st.integers(min_value=1, max_value=7),  # trace id
            st.integers(min_value=0, max_value=1),  # tracepoint
            st.integers(min_value=0, max_value=500_000),  # timestamp
        ),
        st.tuples(
            st.just("link"),
            st.integers(min_value=1, max_value=7),  # child
            st.integers(min_value=0, max_value=8),  # parent (0 = unlink)
            st.just(0),
        ),
        st.tuples(
            st.just("skew"),
            st.integers(min_value=-20_000, max_value=20_000),
            st.just(0),
            st.just(0),
        ),
        st.tuples(st.just("chain"), st.integers(min_value=0, max_value=2), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)

_CHAINS = (None, ["send", "recv"], ["send"])


class TestIncrementalProperty:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_ops)
    def test_warm_equals_cold_after_every_step(self, ops):
        db = TraceDB()
        warm = SpanAssembler(db)
        links = {}
        chain = None
        for op, a, b, c in ops:
            if op == "row":
                _insert(db, a, b, c, node=("tx", "rx", "mid")[(a + b) % 3])
            elif op == "link":
                if b:
                    links[a] = (b,)
                else:
                    links.pop(a, None)
            elif op == "skew":
                db.set_clock_skew("rx", a)
            else:
                chain = _CHAINS[a]
            assert_rpc_matches_cold(warm, links, chain=chain)
            if chain is not None:
                assert_forest_matches_cold(warm, chain, complete_only=bool(c % 2))

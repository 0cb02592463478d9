"""Timeline exporters: Chrome trace-event JSON and OTLP-style JSON.

Two interchange formats plus a terminal rendering:

* :func:`chrome_trace_dict` / :func:`chrome_trace_json` -- the Chrome
  trace-event format (``ph: "X"`` complete events), directly loadable
  in Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Each
  packet becomes a process row, each node a thread row inside it, and
  the control plane (deploys, batch shipments) process 0.
* :func:`otlp_dict` / :func:`otlp_json` -- an OTLP/JSON-style
  ``resourceSpans`` document (the OpenTelemetry trace shape), with the
  32-bit in-packet ID widened into the 128-bit ``traceId`` and span IDs
  derived deterministically from (trace ID, preorder index).
* :func:`timeline_text` -- indented span trees for the terminal.

Determinism: both JSON serializations are canonical (sorted keys, fixed
separators, no wall-clock fields), so two runs of the same scenario
produce byte-identical documents -- the property the determinism CI job
diffs.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape
from typing import Dict, List, Optional

from repro.analysis.reports import format_ns
from repro.tracing.spans import Span, SpanForest, SpanTree

# Synthetic trace ID for the control-plane track: one past the u32
# range, so it can never collide with an in-packet ID.
CONTROL_TRACE_ID = 1 << 32

_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


def _canonical_json(document: Dict) -> str:
    return json.dumps(document, **_CANONICAL) + "\n"


# -- Chrome trace events ------------------------------------------------------


def _us(value_ns: int) -> float:
    """Trace-event timestamps are microseconds; keep ns precision."""
    return value_ns / 1000.0


def _chrome_span_events(
    span: Span, pid: int, tids: Dict[str, int], events: List[Dict]
) -> None:
    tid = tids.setdefault(span.node, len(tids))
    events.append(
        {
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": _us(span.start_ns),
            "dur": _us(span.duration_ns),
            "args": {key: span.attributes[key] for key in sorted(span.attributes)},
        }
    )
    for child in span.children:
        _chrome_span_events(child, pid, tids, events)


def _chrome_process(root: Span, pid: int, label: str, events: List[Dict]) -> None:
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
    )
    tids: Dict[str, int] = {}
    _chrome_span_events(root, pid, tids, events)
    for node, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": node},
            }
        )


def chrome_trace_dict(forest: SpanForest) -> Dict:
    """The forest as a Chrome trace-event document (Perfetto-loadable)."""
    events: List[Dict] = []
    if forest.control_root is not None:
        _chrome_process(forest.control_root, 0, "control-plane", events)
    for index, tree in enumerate(forest, start=1):
        noun = "request" if tree.root.kind == "rpc" else "packet"
        _chrome_process(
            tree.root, index, f"{noun} 0x{tree.trace_id:08x}", events
        )
    return {
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.tracing",
            "trees": len(forest.trees),
            "orphan_records": forest.orphan_records,
        },
        "traceEvents": events,
    }


_INF = float("inf")


def _fast_value(value) -> str:
    """One JSON value exactly as the canonical ``json.dumps`` settings
    would emit it.  The scalar paths reproduce the C encoder's output
    (``encode_basestring_ascii`` is the same escaper, ``repr`` is what
    it uses for ints and finite floats); anything else falls back to
    ``json.dumps`` itself."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return repr(value)
    if kind is float and -_INF < value < _INF:
        return repr(value)
    return json.dumps(value, **_CANONICAL)


# Escaped-string memo: span kinds, attribute keys, hop/device names and
# node names recur across thousands of spans, so escaping each string
# once dominates.  Bounded (cleared on overflow) so unique per-trace
# names cannot grow it without limit.
_ESCAPE_CACHE: Dict[str, str] = {}

# (attribute keyset in insertion order, span kind, attribute values in
# insertion order, their types) -> rendered '{"args":{...},"cat":...'
# event prefix.  The types are part of the key because ``1``, ``1.0``
# and ``True`` hash and compare alike but render as ``1``, ``1.0`` and
# ``true``; only all-scalar payloads are stored, since a container
# value's type says nothing about its elements.  Attribute payloads
# repeat heavily (every hop span of a flow carries the same cpu, every
# wire span the same endpoint pair), so most events reduce to one
# lookup plus the five per-span tail fields.  Bounded (cleared on
# overflow) because high-cardinality values -- trace IDs in packet
# roots -- would otherwise grow it without limit.
_EVENT_PREFIXES: Dict[tuple, str] = {}
_PREFIX_SCALARS = frozenset((str, int, float, bool, type(None)))

# Span durations repeat across traces of the same flow shape (a hop's
# latency profile is narrow) while timestamps never do, so duration
# reprs memoize well.  ns delta -> repr(delta / 1000.0); bounded.
_DUR_REPRS: Dict[int, str] = {}


def _escape_cached(value: str) -> str:
    cached = _ESCAPE_CACHE.get(value)
    if cached is None:
        if len(_ESCAPE_CACHE) > (1 << 16):
            _ESCAPE_CACHE.clear()
        cached = _ESCAPE_CACHE[value] = _escape(value)
    return cached


def _chrome_process_fast(root: Span, pid: int, label: str, out: List[str]) -> None:
    """Serialize one process track (metadata + span events) straight to
    JSON fragments, matching :func:`_chrome_process`'s dicts under the
    canonical settings: keys are emitted pre-sorted, the traversal is
    the same pre-order, and tids are assigned in the same
    first-appearance order."""
    append = out.append
    append(
        '{"args":{"name":%s},"name":"process_name","ph":"M","pid":%d,"tid":0}'
        % (_escape(label), pid)
    )
    tids: Dict[str, int] = {}
    # One constant fragment per tid covers everything between "name" and
    # "ts" in canonical sorted-key order (ph < pid < tid < ts).
    tails: List[str] = []
    prefixes = _EVENT_PREFIXES
    dur_reprs = _DUR_REPRS
    join = "".join
    stack = [root]
    pop = stack.pop
    while stack:
        span = pop()
        node = span.node
        tid = tids.get(node)
        if tid is None:
            tid = tids[node] = len(tids)
            tails.append(',"ph":"X","pid":%d,"tid":%d,"ts":' % (pid, tid))
        attributes = span.attributes
        # dict views iterate in insertion order, so keys + values (with
        # their types) + kind pin down the rendered prefix exactly.
        values = tuple(attributes.values())
        try:
            prefix_key = (tuple(attributes), span.kind, values, tuple(map(type, values)))
            prefix = prefixes.get(prefix_key)
        except TypeError:  # unhashable attribute value (list, dict)
            prefix_key = None
            prefix = None
        if prefix is None:
            prefix = (
                '{"args":{'
                + ",".join(
                    _escape_cached(key) + ":" + _fast_value(attributes[key])
                    for key in sorted(attributes)
                )
                + '},"cat":'
                + _escape_cached(span.kind)
            )
            if prefix_key is not None and _PREFIX_SCALARS.issuperset(prefix_key[3]):
                if len(prefixes) > (1 << 15):
                    prefixes.clear()
                prefixes[prefix_key] = prefix
        start_ns = span.start_ns
        delta = span.end_ns - start_ns
        dur = dur_reprs.get(delta)
        if dur is None:
            if len(dur_reprs) > (1 << 16):
                dur_reprs.clear()
            # ``repr`` of a finite float is exactly what the canonical
            # encoder emits (same for the timestamp below).
            dur = dur_reprs[delta] = repr(delta / 1000.0)
        append(
            join(
                (
                    prefix,
                    ',"dur":',
                    dur,
                    ',"name":',
                    _escape_cached(span.name),
                    tails[tid],
                    repr(start_ns / 1000.0),
                    "}",
                )
            )
        )
        children = span.children
        if children:
            stack.extend(reversed(children))
    for node, tid in tids.items():
        append(
            '{"args":{"name":%s},"name":"thread_name","ph":"M","pid":%d,"tid":%d}'
            % (_escape_cached(node), pid, tid)
        )


def _chrome_tree_track(tree: SpanTree, pid: int) -> str:
    """One tree's process track as a comma-joined JSON fragment.

    Trees the assembler built (``_span_count`` stamped) are never
    mutated after assembly, so their fragment is memoized on the tree
    together with the pid it was rendered for; a tree that keeps its
    place in the forest is not re-serialized.  Hand-built trees always
    render fresh."""
    memo = tree._chrome_track
    if memo is not None and memo[0] == pid:
        return memo[1]
    noun = "request" if tree.root.kind == "rpc" else "packet"
    events: List[str] = []
    _chrome_process_fast(tree.root, pid, f"{noun} 0x{tree.trace_id:08x}", events)
    track = ",".join(events)
    if tree._span_count is not None:
        tree._chrome_track = (pid, track)
    return track


def chrome_trace_json(forest: SpanForest) -> str:
    """Canonical (byte-stable) serialization of :func:`chrome_trace_dict`.

    Built directly as a string in one pass over the forest -- no
    intermediate event dicts -- but byte-identical to
    ``json.dumps(chrome_trace_dict(forest), sort_keys=True,
    separators=(",", ":")) + "\\n"``; the differential suite
    (tests/test_tracing_batch.py) diffs the two on every scenario.
    Assembled trees reuse their memoized track (see
    :func:`_chrome_tree_track`), so re-exporting a forest after a
    collect serializes only the trees that changed or moved."""
    events: List[str] = []
    if forest.control_root is not None:
        _chrome_process_fast(forest.control_root, 0, "control-plane", events)
    events.extend(_chrome_tree_track(tree, pid) for pid, tree in enumerate(forest.trees, start=1))
    return (
        '{"displayTimeUnit":"ns","otherData":{"generator":"repro.tracing",'
        '"orphan_records":%d,"trees":%d},"traceEvents":[%s]}\n'
        % (forest.orphan_records, len(forest.trees), ",".join(events))
    )


# -- OTLP-style JSON ----------------------------------------------------------


def _otlp_attributes(span: Span) -> List[Dict]:
    attributes = [{"key": "span.kind", "value": {"stringValue": span.kind}}]
    if span.node:
        attributes.append({"key": "node", "value": {"stringValue": span.node}})
    for key in sorted(span.attributes):
        value = span.attributes[key]
        if isinstance(value, bool):
            encoded = {"boolValue": value}
        elif isinstance(value, int):
            encoded = {"intValue": str(value)}  # OTLP/JSON int64s are strings
        elif isinstance(value, float):
            encoded = {"doubleValue": value}
        else:
            encoded = {"stringValue": str(value)}
        attributes.append({"key": key, "value": encoded})
    return attributes


def _otlp_spans(
    span: Span,
    trace_id: int,
    parent_span_id: str,
    counter: List[int],
    out: List[Dict],
) -> None:
    span_id = f"{trace_id & 0xFFFFFFFF:08x}{counter[0]:08x}"
    counter[0] += 1
    out.append(
        {
            "traceId": f"{trace_id:032x}",
            "spanId": span_id,
            "parentSpanId": parent_span_id,  # "" marks a root span
            "name": span.name,
            "kind": "SPAN_KIND_INTERNAL",
            "startTimeUnixNano": str(span.start_ns),
            "endTimeUnixNano": str(span.end_ns),
            "attributes": _otlp_attributes(span),
        }
    )
    for child in span.children:
        _otlp_spans(child, trace_id, span_id, counter, out)


def otlp_dict(forest: SpanForest) -> Dict:
    """The forest as an OTLP-style ``resourceSpans`` document."""
    spans: List[Dict] = []
    for tree in forest:
        _otlp_spans(tree.root, tree.trace_id, "", [0], spans)
    if forest.control_root is not None:
        _otlp_spans(forest.control_root, CONTROL_TRACE_ID, "", [0], spans)
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": "vnettracer-repro"},
                        }
                    ]
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.tracing", "version": "1"},
                        "spans": spans,
                    }
                ],
            }
        ]
    }


def otlp_json(forest: SpanForest) -> str:
    """Canonical (byte-stable) serialization of :func:`otlp_dict`."""
    return _canonical_json(otlp_dict(forest))


# -- terminal rendering -------------------------------------------------------


def span_tree_text(tree: SpanTree) -> str:
    """One tree as indented text, durations humanized."""
    lines: List[str] = []

    def render(span: Span, depth: int) -> None:
        pad = "  " * depth
        detail = ""
        if span.kind == "device":
            offset = span.attributes.get("clock_offset_ns", 0)
            detail = f"  [clock offset {offset:+d} ns]"
        duration = format_ns(span.duration_ns)
        lines.append(f"{pad}{span.kind:7s} {span.name:44s} {duration:>10s}{detail}")
        for child in span.children:
            render(child, depth + 1)

    render(tree.root, 0)
    return "\n".join(lines)


def timeline_text(forest: SpanForest, limit: Optional[int] = 3) -> str:
    """A forest summary plus the first ``limit`` trees (None = all)."""
    lines = [
        f"span forest: {len(forest.trees)} trees, {forest.span_count()} spans, "
        f"{forest.orphan_records} orphan records"
    ]
    trees = forest.trees if limit is None else forest.trees[:limit]
    for tree in trees:
        lines.append("")
        lines.append(span_tree_text(tree))
    if limit is not None and len(forest.trees) > limit:
        lines.append("")
        lines.append(f"... {len(forest.trees) - limit} more trees")
    if forest.control_root is not None:
        lines.append("")
        lines.append(
            span_tree_text(SpanTree(CONTROL_TRACE_ID, forest.control_root, 0))
        )
    return "\n".join(lines)

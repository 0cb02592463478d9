"""The span model: per-packet trace trees.

The paper's collector stores flat rows; distributed-tracing systems
store *spans* -- named, timed intervals arranged in a parent/child tree
per trace.  Nahida (arXiv:2311.09032) shows that eBPF in-band trace IDs
map naturally onto that model, and our 32-bit per-packet IDs are
exactly such trace IDs: every packet becomes one trace, every device it
crosses becomes a child span, every tracepoint-to-tracepoint hop a
grandchild.

A :class:`Span` is a plain timed interval on the *master-aligned*
clock (the TraceDB applies each node's Cristian offset before spans are
built, so cross-node spans subtract directly).  Kinds:

========= ==========================================================
kind      meaning
========= ==========================================================
packet    the root: first to last observation of one trace ID
device    a contiguous run of records on one node (per-device time)
hop       one tracepoint pair inside a device
wire      the gap between the last record on one node and the first
          on the next (transmission + anything untraced in between)
control   control-plane activity (deploy, batch shipping)
rpc       one RPC in a cross-service request tree: wraps the packet
          tree of its own trace ID and nests its child RPCs
          (docs/SERVICES.md)
========= ==========================================================

Durations are integer nanoseconds and **telescoping**: the top-level
children of a packet span partition it exactly, so their durations sum
to the end-to-end latency with no rounding -- the invariant the
timeline acceptance test pins down to the nanosecond.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

SPAN_KINDS = ("packet", "device", "hop", "wire", "control", "rpc")


@dataclass
class Span:
    """One named, timed interval in a trace tree."""

    name: str
    kind: str
    node: str
    start_ns: int
    end_ns: int
    children: List["Span"] = field(default_factory=list)
    attributes: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {self.kind!r}")
        if self.end_ns < self.start_ns:
            raise ValueError(
                f"span {self.name!r} ends before it starts "
                f"({self.end_ns} < {self.start_ns})"
            )

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def add_child(self, child: "Span") -> "Span":
        self.children.append(child)
        return child

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal (self first).  Iterative: an explicit
        stack instead of nested generator delegation, so walking a
        forest costs one frame, not one per tree level."""
        stack = [self]
        pop = stack.pop
        while stack:
            span = pop()
            yield span
            children = span.children
            if children:
                stack.extend(reversed(children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.kind}:{self.name!r} {self.start_ns}..{self.end_ns} "
            f"children={len(self.children)}>"
        )


@dataclass
class SpanTree:
    """One packet's reconstructed trace: a root span plus metadata."""

    trace_id: int
    root: Span
    record_count: int
    duplicate_records: int = 0

    # Span count memo (not a dataclass field): the batch assembler knows
    # the count at build time and stamps it here so forest-wide totals
    # never re-walk trees.  ``None`` (hand-built trees) falls back to a
    # walk; stays valid because trees are never mutated after assembly.
    _span_count = None
    # (pid, Chrome process-track fragment) memo, filled by
    # ``chrome_trace_json`` for assembler-built trees only.
    _chrome_track = None

    @property
    def start_ns(self) -> int:
        return self.root.start_ns

    @property
    def end_ns(self) -> int:
        return self.root.end_ns

    @property
    def duration_ns(self) -> int:
        return self.root.duration_ns

    def spans(self) -> List[Span]:
        """Every span in the tree, pre-order."""
        return list(self.root.walk())

    def hop_spans(self) -> List[Span]:
        """The leaf segments (hops and wires) in timestamp order."""
        return [s for s in self.root.walk() if s.kind in ("hop", "wire")]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpanTree 0x{self.trace_id:08x} {self.duration_ns}ns "
            f"spans={len(self.spans())}>"
        )


@dataclass
class SpanForest:
    """All span trees reconstructed for one flow, plus build statistics.

    ``orphan_records`` counts rows that could not be folded into any
    tree: traces observed at a single tracepoint only (nothing to pair
    with) and duplicate observations at a tracepoint already folded
    (the first row wins, per ``TraceDB.trace_ids_at`` semantics).
    """

    trees: List[SpanTree] = field(default_factory=list)
    orphan_records: int = 0
    control_root: Optional[Span] = None

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[SpanTree]:
        return iter(self.trees)

    def span_count(self) -> int:
        return sum(
            tree._span_count if tree._span_count is not None else len(tree.spans())
            for tree in self.trees
        )

    def tree_for(self, trace_id: int) -> Optional[SpanTree]:
        for tree in self.trees:
            if tree.trace_id == trace_id:
                return tree
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpanForest trees={len(self.trees)} spans={self.span_count()} "
            f"orphans={self.orphan_records}>"
        )

"""Layer map and the span recorder behind the benchmark's traced run.

Every module under ``src/repro`` belongs to one named layer: the
package sets the default and ``MODULE_LAYERS`` overrides single
modules.  ``instrument()`` wraps every function and method defined in
those modules with a span at each layer boundary: a call into a
function of another layer than the innermost open span opens a span
(name, start, end, parent); a call inside the same layer opens none.
A layer's self time is the total length of its spans minus the part
covered by their child spans, so standard-library time counts toward
the calling layer (``copy.deepcopy`` under ``Packet.clone`` is
``net.packet`` time).  Time under no span is ``unattributed``.

Not wrapped, so their time counts toward the caller: dunder methods
other than ``__init__`` and ``__call__`` (``Event.__lt__`` runs inside
``heapq`` on the event loop's behalf), properties, generator
functions, and functions made at run time (lambdas, JIT-compiled eBPF
programs).
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import struct
import time
from array import array
from typing import Dict, List, Optional

# Package default layer; longest matching prefix wins.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro": "experiments",
    "repro.analysis": "experiments",
    "repro.baselines": "experiments",
    "repro.bench": "experiments",
    "repro.experiments": "experiments",
    "repro.core": "core.control",
    "repro.ebpf": "ebpf.vm",
    "repro.faults": "faults",
    "repro.net": "net.stack",
    "repro.obs": "obs",
    "repro.services": "services",
    "repro.sim": "sim.engine",
    "repro.streaming": "streaming",
    "repro.tracing": "tracing",
    "repro.virt": "virt",
    "repro.workloads": "workloads",
}

MODULE_LAYERS: Dict[str, str] = {
    "repro.sim.cpu": "sim.cpu",
    "repro.sim.coordinator": "sim.coordinator",
    "repro.sim.rng": "sim.rng",
    "repro.net.packet": "net.packet",
    "repro.net.addressing": "net.packet",
    "repro.net.checksum": "net.packet",
    "repro.net.flow": "net.packet",
    "repro.net.traceid": "net.packet",
    "repro.net.tcp": "net.tcp",
    "repro.net.vxlan": "net.vxlan",
    "repro.net.gso": "net.vxlan",
    "repro.ebpf.probes": "ebpf.hooks",
    "repro.ebpf.assembler": "ebpf.load",
    "repro.ebpf.inspect": "ebpf.load",
    "repro.ebpf.jit": "ebpf.load",
    "repro.ebpf.verifier": "ebpf.load",
    "repro.core.compiler": "ebpf.load",
    "repro.core.agent": "core.agent",
    "repro.core.records": "core.agent",
    "repro.core.ringbuffer": "core.agent",
    "repro.core.collector": "core.collector",
    "repro.core.tracedb": "core.tracedb.query",
    "repro.core.metrics": "core.metrics",
}

# Single functions that belong to another layer than their module:
# the TraceDB ingest path is timed apart from its read path.
FUNCTION_LAYERS: Dict[str, str] = {
    f"repro.core.tracedb.{name}": "core.tracedb.insert"
    for name in (
        "_ColumnTable.__init__", "_ColumnTable.append",
        "TraceDB._table", "TraceDB._node_index", "TraceDB._note_trace",
        "TraceDB.insert", "TraceDB.insert_packed", "TraceDB.mark_batch",
        "TraceDB.set_clock_skew",
    )
}

# Report order; "unattributed" is the root span, time under no layer.
LAYERS = (
    "sim.engine", "sim.cpu", "sim.coordinator", "sim.rng",
    "net.packet", "net.stack", "net.tcp", "net.vxlan",
    "virt",
    "ebpf.hooks", "ebpf.vm", "ebpf.load",
    "core.agent", "core.collector", "core.tracedb.insert", "core.tracedb.query",
    "core.metrics", "core.control",
    "tracing", "streaming", "services", "workloads", "obs", "faults", "experiments",
)
UNATTRIBUTED = "unattributed"

_KEPT_DUNDERS = ("__init__", "__call__")


def layer_of(module_name: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or ``None``."""
    if module_name in MODULE_LAYERS:
        return MODULE_LAYERS[module_name]
    prefix = module_name
    while prefix:
        if prefix in PACKAGE_LAYERS:
            return PACKAGE_LAYERS[prefix]
        prefix = prefix.rpartition(".")[0]
    return None


def repro_modules() -> List[str]:
    """Every importable module of the ``repro`` package, sorted."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
    return sorted(names)


def import_repro() -> list:
    """Import every ``repro`` module, so that no import (not even a
    lazy one inside a function) runs while a sample is timed."""
    return [importlib.import_module(name) for name in repro_modules()]


class SpanRecorder:
    """Spans kept in memory as parallel arrays, written out at the end.

    Span 0 is the root (layer ``unattributed``) and covers the whole
    traced region; every other span's parent is the span that was
    innermost when it opened.
    """

    def __init__(self) -> None:
        self.names = [UNATTRIBUTED] + list(LAYERS)
        self.layer = array("H", [0])
        self.parent = array("l", [-1])
        self.start = array("d", [0.0])
        self.end = array("d", [0.0])
        # Innermost-last open spans: indices and their layer ids.
        self.open_spans = [0]
        self.open_layers = [0]

    def begin(self) -> None:
        self.start[0] = time.perf_counter()

    def finish(self) -> None:
        self.end[0] = time.perf_counter()

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls`` (spans opened) and ``self_s``."""
        count = len(self.layer)
        child_time = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for index in range(1, count):
            child_time[parent[index]] += end[index] - start[index]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for index in range(count):
            layer_id = self.layer[index]
            calls[layer_id] += 1
            self_s[layer_id] += end[index] - start[index] - child_time[index]
        return {
            name: {"calls": calls[i] if i else 0, "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Binary dump: a line naming the layers by id, the span count
        as ``<Q``, then four native-order columns: layer id (``H``),
        parent index (``l``), start and end in seconds (``d``)."""
        with open(path, "wb") as out:
            out.write((",".join(self.names) + "\n").encode())
            out.write(struct.pack("<Q", len(self.layer)))
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(out)


def _wrap(fn, layer_id: int, recorder: SpanRecorder):
    open_spans, open_layers = recorder.open_spans, recorder.open_layers
    layer_arr, parent_arr = recorder.layer, recorder.parent
    start_arr, end_arr = recorder.start, recorder.end
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if open_layers[-1] == layer_id:
            return fn(*args, **kwargs)
        index = len(layer_arr)
        layer_arr.append(layer_id)
        parent_arr.append(open_spans[-1])
        end_arr.append(0.0)
        open_spans.append(index)
        open_layers.append(layer_id)
        start_arr.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            end_arr[index] = clock()
            open_spans.pop()
            open_layers.pop()

    return traced


def _wrappable(value) -> bool:
    return inspect.isfunction(value) and not inspect.isgeneratorfunction(value)


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every function and method defined in a ``repro`` module.
    Call before building any scenario objects, so bound methods taken
    as callbacks are the wrapped ones."""
    layer_ids = {name: index for index, name in enumerate(recorder.names)}
    modules = import_repro()
    replaced: Dict[int, object] = {}

    def wrap(fn, qualname: str, default_layer: str):
        if id(fn) not in replaced:  # an alias of a function already wrapped
            layer = FUNCTION_LAYERS.get(qualname, default_layer)
            replaced[id(fn)] = _wrap(fn, layer_ids[layer], recorder)
        return replaced[id(fn)]

    def instrument_class(cls, prefix: str, layer: str) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("__") and name not in _KEPT_DUNDERS:
                continue
            qualname = f"{prefix}.{name}"
            if isinstance(value, (staticmethod, classmethod)):
                if _wrappable(value.__func__):
                    setattr(cls, name, type(value)(wrap(value.__func__, qualname, layer)))
            elif _wrappable(value):
                setattr(cls, name, wrap(value, qualname, layer))
            elif inspect.isclass(value) and value.__module__ == cls.__module__:
                instrument_class(value, qualname, layer)

    for module in modules:
        layer = layer_of(module.__name__)
        for name, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            qualname = f"{module.__name__}.{name}"
            if _wrappable(value):
                setattr(module, name, wrap(value, qualname, layer))
            elif inspect.isclass(value) and not issubclass(value, enum.Enum):
                instrument_class(value, qualname, layer)
    # Re-point names other modules imported before wrapping
    # (``from repro.x import f``) at the wrapped functions.
    for module in modules:
        for name, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None:
                setattr(module, name, wrapped)

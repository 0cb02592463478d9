"""Probe attach points and the per-kernel hook registry.

Every simulated kernel function and network device is a *hook*.  The
stack fires hooks as packets traverse it; attached handlers (eBPF
programs via :class:`EBPFAttachment`, or the SystemTap baseline) run and
return their simulated cost, which the caller charges to the packet /
CPU.  This is the mechanism behind §III-B: "vNetTracer supports
instrumenting kernel functions, return of kernel functions, kernel
tracepoints and raw sockets through kprobe, kretprobe, tracepoints and
network devices."

Hook names are structured: ``kprobe:udp_send_skb``,
``kretprobe:tcp_recvmsg``, ``tracepoint:net:net_dev_xmit``,
``dev:eth0``, ``socket:5201``.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, List, Optional

from repro.ebpf.context import build_empty_context, build_skb_context
from repro.ebpf.vm import BPFProgram, ExecutionEnv
from repro.net.packet import Packet

_attach_id_counter = itertools.count(1)


class ProbeKind(enum.Enum):
    KPROBE = "kprobe"
    KRETPROBE = "kretprobe"
    TRACEPOINT = "tracepoint"
    DEVICE = "dev"
    SOCKET = "socket"
    UPROBE = "uprobe"
    URETPROBE = "uretprobe"


class ProbeSpec:
    """Where a program attaches: kind + target (+ optional device id)."""

    __slots__ = ("kind", "target", "device_id")

    def __init__(self, kind: ProbeKind, target: str, device_id: Optional[int] = None):
        self.kind = kind
        self.target = target
        self.device_id = device_id

    @property
    def hook_name(self) -> str:
        return f"{self.kind.value}:{self.target}"

    @classmethod
    def parse(cls, text: str) -> "ProbeSpec":
        """Parse ``"kprobe:udp_send_skb"`` style strings."""
        kind_text, _, target = text.partition(":")
        try:
            kind = ProbeKind(kind_text)
        except ValueError:
            raise ValueError(f"unknown probe kind in {text!r}") from None
        if not target:
            raise ValueError(f"missing probe target in {text!r}")
        return cls(kind, target)

    def __repr__(self) -> str:
        return f"ProbeSpec({self.hook_name!r})"


class ProbeEvent:
    """What a firing hook passes to handlers."""

    __slots__ = ("hook", "node", "packet", "ifindex", "devname", "cpu", "direction", "extra")

    def __init__(
        self,
        hook: str,
        node: str,
        packet: Optional[Packet] = None,
        ifindex: int = 0,
        devname: str = "",
        cpu: int = 0,
        direction: str = "",
        extra: Optional[dict] = None,
    ):
        self.hook = hook
        self.node = node
        self.packet = packet
        self.ifindex = ifindex
        self.devname = devname
        self.cpu = cpu
        self.direction = direction
        self.extra = extra or {}

    def __repr__(self) -> str:
        return f"<ProbeEvent {self.node}:{self.hook} cpu{self.cpu} pkt={self.packet!r}>"


class Attachment:
    """Base class: anything attachable to a hook."""

    def __init__(self, name: str = ""):
        self.attach_id = next(_attach_id_counter)
        self.name = name or f"attachment-{self.attach_id}"

    def handle(self, event: ProbeEvent) -> int:
        """Process one event; return the simulated cost in nanoseconds."""
        raise NotImplementedError


class EBPFAttachment(Attachment):
    """An eBPF program bound to a hook with its execution environment.

    ``clock`` should be the owning node's CLOCK_MONOTONIC reader;
    ``hook_id`` is baked into the context so records identify their
    tracepoint; ``use_inner`` asks the context builder to strip
    encapsulation before parsing the five-tuple; ``shadow`` turns on the
    program's differential-oracle mode so every firing is checked
    against the interpreter.
    """

    def __init__(
        self,
        program: BPFProgram,
        env: ExecutionEnv,
        hook_id: int = 0,
        use_inner: bool = False,
        name: str = "",
        shadow: bool = False,
    ):
        super().__init__(name or program.name)
        self.program = program
        if shadow:
            program.shadow = True
        self.env = env
        self.hook_id = hook_id
        self.use_inner = use_inner
        self.events_seen = 0
        self.events_matched = 0

    def handle(self, event: ProbeEvent) -> int:
        self.events_seen += 1
        if event.packet is None:
            # kprobe on a function without an skb (e.g. net_rx_action):
            # the program runs against a zeroed context.
            ctx, data = build_empty_context(
                ifindex=event.ifindex, cpu=event.cpu, hook_id=self.hook_id
            )
        else:
            ctx, data = build_skb_context(
                event.packet,
                ifindex=event.ifindex,
                cpu=event.cpu,
                hook_id=self.hook_id,
                use_inner=self.use_inner,
            )
        env = self.env
        env.cpu = event.cpu
        result = self.program.run(env, ctx, data)
        if result.r0:
            self.events_matched += 1
        return result.cost_ns


class CallbackAttachment(Attachment):
    """A plain-Python handler with a fixed cost; used by tests and by the
    SystemTap baseline's building blocks."""

    def __init__(self, callback: Callable[[ProbeEvent], None], cost_ns: int = 0, name: str = ""):
        super().__init__(name)
        self.callback = callback
        self.cost_ns = cost_ns

    def handle(self, event: ProbeEvent) -> int:
        self.callback(event)
        return self.cost_ns


class HookRegistry:
    """Per-kernel registry of hooks and their attachments.

    An un-probed kernel function costs nothing extra: the simulated
    stack looks its hook up in ``attached`` first and, when nothing is
    attached, only bumps ``fire_counts`` -- no :class:`ProbeEvent` is
    built and ``fire`` is not called.  ``fire_counts`` therefore counts
    every fire, attached or not, while ``fire`` sees only the attached
    ones.  ``attached`` is read-only outside this class.
    """

    def __init__(self, node_name: str = ""):
        self.node_name = node_name
        self.attached: Dict[str, List[Attachment]] = {}
        self.fire_counts: Dict[str, int] = {}

    def attach(self, hook_name: str, attachment: Attachment) -> Attachment:
        self.attached.setdefault(hook_name, []).append(attachment)
        return attachment

    def detach(self, hook_name: str, attachment: Attachment) -> bool:
        try:
            self.attached.get(hook_name, []).remove(attachment)
            return True
        except ValueError:
            return False

    def detach_all(self, hook_name: Optional[str] = None) -> int:
        """Detach everything (or everything on one hook); returns count."""
        if hook_name is not None:
            removed = len(self.attached.get(hook_name, []))
            self.attached[hook_name] = []
            return removed
        removed = sum(len(v) for v in self.attached.values())
        self.attached.clear()
        return removed

    def attachments(self, hook_name: str) -> List[Attachment]:
        return list(self.attached.get(hook_name, []))

    def has_attachments(self, hook_name: str) -> bool:
        return bool(self.attached.get(hook_name))

    def fire(self, event: ProbeEvent) -> int:
        """Fire a hook; returns total handler cost in nanoseconds."""
        self.fire_counts[event.hook] = self.fire_counts.get(event.hook, 0) + 1
        handlers = self.attached.get(event.hook)
        if not handlers:
            return 0
        total_cost = 0
        for handler in handlers:
            total_cost += handler.handle(event)
        return total_cost

    def fires(self, hook_name: str) -> int:
        return self.fire_counts.get(hook_name, 0)

    def __repr__(self) -> str:
        active = {k: len(v) for k, v in self.attached.items() if v}
        return f"<HookRegistry {self.node_name!r} active={active}>"

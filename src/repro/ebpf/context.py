"""The program context: a ``__sk_buff``-like struct handed to programs in R1.

Layout (little-endian, fixed offsets -- programs hardcode these, as real
socket-filter programs hardcode ``__sk_buff`` offsets):

====== ====== ==========================================================
offset size   field
====== ====== ==========================================================
0      u32    len          -- wire length of the packet at this hook
4      u16    protocol     -- ethertype
8      u32    ifindex      -- device the hook fired on
12     u32    rx_cpu       -- CPU the event is being processed on
16     u32    src_ip       -- IPv4 source (host byte order)
20     u32    dst_ip       -- IPv4 destination (host byte order)
24     u16    src_port     -- L4 source port (host byte order)
26     u16    dst_port     -- L4 destination port (host byte order)
28     u8     ip_proto     -- 6 TCP / 17 UDP
32     u32    hook_id      -- numeric tracepoint id assigned at attach
36     u32    payload_off  -- offset of L4 payload within data
40     u64    data         -- pointer to the first packet byte
48     u64    data_end     -- pointer one past the last packet byte
====== ====== ==========================================================

For VXLAN hooks inside an overlay, the builder can be asked to describe
the *inner* packet (the paper: "the tracing scripts need to strip the
VXLAN header off to read the skb information").  The parsed fields then
refer to the inner five-tuple while data/data_end still cover the bytes
visible at the hook.

The packet bytes are a :class:`PacketImage`: the context's ``len`` and
``data_end`` come from the packet's wire length, and the image is
serialized only when a program first touches the packet region.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.ebpf.memory import PACKET_REGION_BASE
from repro.net.packet import Packet

CTX_SIZE = 56

OFF_LEN = 0
OFF_PROTOCOL = 4
OFF_IFINDEX = 8
OFF_RX_CPU = 12
OFF_SRC_IP = 16
OFF_DST_IP = 20
OFF_SRC_PORT = 24
OFF_DST_PORT = 26
OFF_IP_PROTO = 28
OFF_HOOK_ID = 32
OFF_PAYLOAD_OFF = 36
OFF_DATA = 40
OFF_DATA_END = 48


# The whole context in one pack: the u16/u8 fields are followed by the
# padding that puts the next field at its fixed offset.
_CTX_STRUCT = struct.Struct("<IH2xIIIIHHB3xIIQQ")


class PacketImage:
    """The packet region of one program run, serialized on first touch.

    Most runs never read packet bytes: a filter that rejects the packet
    reads only context fields.  So the image knows its length up front
    (``len()``, from :attr:`Packet.total_length`) and runs
    :meth:`Packet.to_bytes` only when :meth:`materialize` is first
    called -- by the VM when a load, a store or a helper touches the
    packet region.  Serializing also fixes up the header length fields.
    """

    __slots__ = ("packet", "length", "data")

    def __init__(self, packet: Packet, length: int):
        self.packet = packet
        self.length = length
        self.data: Optional[bytearray] = None

    def __len__(self) -> int:
        return self.length

    def materialize(self) -> bytearray:
        """The wire image as a mutable buffer (serialized once)."""
        data = self.data
        if data is None:
            data = self.data = bytearray(self.packet.to_bytes())
        return data

    def fresh(self) -> "PacketImage":
        """A copy in the same state: unserialized, or holding a copy of
        the bytes (the shadow tier's oracle run gets one)."""
        copy = PacketImage(self.packet, self.length)
        if self.data is not None:
            copy.data = bytearray(self.data)
        return copy


def build_skb_context(
    packet: Packet,
    ifindex: int = 0,
    cpu: int = 0,
    hook_id: int = 0,
    use_inner: bool = False,
) -> Tuple[bytearray, PacketImage]:
    """Build (ctx, packet image) for one program invocation.

    ``use_inner`` fills the parsed fields from the innermost packet
    (after notional VXLAN decap).  ``len`` and ``data_end`` come from
    the packet's wire length; the image serializes only if the program
    touches the packet region.
    """
    length = packet.total_length
    logical = packet
    # Where the L4 payload of the *logical* packet starts inside `data`.
    # For encapsulated packets the outer headers precede the inner image.
    payload_offset = 0
    if use_inner:
        while isinstance(logical.payload, Packet):
            payload_offset += logical.header_length
            logical = logical.payload
    payload_offset += logical.header_length

    eth = logical.eth
    ip = logical.ip
    l4 = logical.tcp or logical.udp
    ctx = bytearray(CTX_SIZE)
    _CTX_STRUCT.pack_into(
        ctx,
        0,
        length,
        eth.ethertype if eth is not None else 0,
        ifindex,
        cpu,
        ip.src.value if ip is not None else 0,
        ip.dst.value if ip is not None else 0,
        l4.src_port if l4 is not None else 0,
        l4.dst_port if l4 is not None else 0,
        ip.protocol if ip is not None else 0,
        hook_id,
        payload_offset,
        PACKET_REGION_BASE,
        PACKET_REGION_BASE + length,
    )
    return ctx, PacketImage(packet, length)


def build_empty_context(
    ifindex: int = 0, cpu: int = 0, hook_id: int = 0
) -> Tuple[bytearray, bytearray]:
    """A context for probe points with no packet: all packet fields are
    zero, data == data_end (an empty, valid region)."""
    ctx = bytearray(CTX_SIZE)
    base = PACKET_REGION_BASE
    _CTX_STRUCT.pack_into(ctx, 0, 0, 0, ifindex, cpu, 0, 0, 0, 0, 0, hook_id, 0, base, base)
    return ctx, bytearray(0)


def context_field(ctx: bytearray, offset: int, size: int) -> int:
    """Read a context field from the byte image (user-space debugging)."""
    return int.from_bytes(ctx[offset : offset + size], "little")

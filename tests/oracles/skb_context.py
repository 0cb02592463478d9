"""The per-field program-context builder, kept as a differential oracle.

This is the builder ``repro.ebpf.context.build_skb_context`` replaced:
it serializes the packet up front, takes ``len`` and ``data_end`` from
the serialized image, and writes the context one ``struct.pack_into``
per field.  ``tests/test_ebpf_lazy_image.py`` checks that the one-pack
builder produces the same context bytes and the same packet image.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.ebpf.context import (
    CTX_SIZE,
    OFF_DATA,
    OFF_DATA_END,
    OFF_DST_IP,
    OFF_DST_PORT,
    OFF_HOOK_ID,
    OFF_IFINDEX,
    OFF_IP_PROTO,
    OFF_LEN,
    OFF_PAYLOAD_OFF,
    OFF_PROTOCOL,
    OFF_RX_CPU,
    OFF_SRC_IP,
    OFF_SRC_PORT,
)
from repro.ebpf.memory import PACKET_REGION_BASE
from repro.net.packet import Packet


def build_skb_context_per_field(
    packet: Packet,
    ifindex: int = 0,
    cpu: int = 0,
    hook_id: int = 0,
    use_inner: bool = False,
) -> Tuple[bytearray, bytearray]:
    """Build (ctx, packet_bytes) the old way: serialize, then pack each field."""
    logical = packet.innermost if use_inner else packet
    data = bytearray(packet.to_bytes())

    ctx = bytearray(CTX_SIZE)
    struct.pack_into("<I", ctx, OFF_LEN, len(data))
    eth = logical.eth
    struct.pack_into("<H", ctx, OFF_PROTOCOL, eth.ethertype if eth else 0)
    struct.pack_into("<I", ctx, OFF_IFINDEX, ifindex)
    struct.pack_into("<I", ctx, OFF_RX_CPU, cpu)

    ip = logical.ip
    if ip is not None:
        struct.pack_into("<I", ctx, OFF_SRC_IP, ip.src.value)
        struct.pack_into("<I", ctx, OFF_DST_IP, ip.dst.value)
        struct.pack_into("<B", ctx, OFF_IP_PROTO, ip.protocol)

    if logical.tcp is not None:
        struct.pack_into("<H", ctx, OFF_SRC_PORT, logical.tcp.src_port)
        struct.pack_into("<H", ctx, OFF_DST_PORT, logical.tcp.dst_port)
    elif logical.udp is not None:
        struct.pack_into("<H", ctx, OFF_SRC_PORT, logical.udp.src_port)
        struct.pack_into("<H", ctx, OFF_DST_PORT, logical.udp.dst_port)

    # Where the L4 payload of the *logical* packet starts inside `data`.
    outer_header_len = 0
    walk = packet
    while walk is not logical:
        outer_header_len += walk.header_length
        walk = walk.payload
    payload_offset = outer_header_len + logical.header_length
    struct.pack_into("<I", ctx, OFF_PAYLOAD_OFF, payload_offset)

    struct.pack_into("<I", ctx, OFF_HOOK_ID, hook_id)
    struct.pack_into("<Q", ctx, OFF_DATA, PACKET_REGION_BASE)
    struct.pack_into("<Q", ctx, OFF_DATA_END, PACKET_REGION_BASE + len(data))
    return ctx, data

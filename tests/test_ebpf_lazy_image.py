"""The program context and the lazy packet image.

* the one-pack context builder against the per-field oracle
  (``tests/oracles/skb_context.py``), over UDP, TCP with options, VXLAN
  with and without ``use_inner``, and non-IP frames;
* ``OFF_LEN`` (taken from ``Packet.total_length``) equals the length of
  the serialized image;
* a filter miss never serializes the packet, while a program that reads
  the UDP trailer or the TCP option gets the same ``r0`` and record
  bytes on the compiled, interpreter and shadow tiers;
* an out-of-bounds packet load still faults, without serializing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_script
from repro.core.config import (
    ActionSpec,
    FilterRule,
    ID_MODE_NONE,
    ID_MODE_TCP_OPTION,
    ID_MODE_UDP_TRAILER,
    TracepointSpec,
)
from repro.ebpf import context as ctxmod
from repro.ebpf.assembler import Assembler
from repro.ebpf.context import PacketImage, build_skb_context, context_field
from repro.ebpf.helpers import BPF_F_CURRENT_CPU, HELPER_PERF_EVENT_OUTPUT
from repro.ebpf.isa import R0, R1, R2, R3, R4, R5
from repro.ebpf.maps import PerCPUArrayMap, PerfEventArray
from repro.ebpf.memory import MemoryFault
from repro.ebpf.probes import EBPFAttachment, HookRegistry, ProbeEvent
from repro.ebpf.vm import BPFProgram, ExecutionEnv
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import (
    ETHERTYPE_ARP,
    EthernetHeader,
    IPPROTO_UDP,
    IPv4Header,
    Packet,
    UDPHeader,
    VXLANHeader,
    make_tcp_packet,
    make_udp_packet,
)
from repro.net.traceid import TraceIDEngine
from repro.sim.rng import SeededRNG
from tests.oracles.skb_context import build_skb_context_per_field

MAC_A, MAC_B = MACAddress.from_index(1), MACAddress.from_index(2)
IP_A, IP_B = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")

u32s = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports = st.integers(min_value=0, max_value=0xFFFF)
ips = u32s.map(IPv4Address)
payloads = st.binary(max_size=96)
# TCP options: whole 4-byte words, at most 40 bytes.
tcp_options = st.integers(min_value=0, max_value=10).flatmap(
    lambda words: st.binary(min_size=4 * words, max_size=4 * words)
)


@st.composite
def plain_packets(draw):
    src, dst = draw(ips), draw(ips)
    sport, dport = draw(ports), draw(ports)
    payload = draw(payloads)
    if draw(st.booleans()):
        return make_tcp_packet(
            MAC_A, MAC_B, src, dst, sport, dport, payload, options=draw(tcp_options)
        )
    return make_udp_packet(MAC_A, MAC_B, src, dst, sport, dport, payload)


def _vxlan(inner: Packet, vni: int = 7) -> Packet:
    return Packet(
        [
            EthernetHeader(MAC_B, MAC_A),
            IPv4Header(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), IPPROTO_UDP),
            UDPHeader(50000, 4789),
            VXLANHeader(vni),
        ],
        inner,
    )


@st.composite
def any_packets(draw):
    kind = draw(st.sampled_from(["plain", "vxlan", "vxlan2", "arp"]))
    if kind == "arp":
        return Packet([EthernetHeader(MAC_A, MAC_B, ETHERTYPE_ARP)], draw(payloads))
    packet = draw(plain_packets())
    if kind in ("vxlan", "vxlan2"):
        packet = _vxlan(packet, draw(st.integers(min_value=0, max_value=(1 << 24) - 1)))
    if kind == "vxlan2":
        packet = _vxlan(packet)
    return packet


class TestContextMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        packet=any_packets(),
        ifindex=u32s,
        cpu=u32s,
        hook_id=u32s,
        use_inner=st.booleans(),
    )
    def test_one_pack_equals_per_field(self, packet, ifindex, cpu, hook_id, use_inner):
        kwargs = dict(ifindex=ifindex, cpu=cpu, hook_id=hook_id, use_inner=use_inner)
        expected_ctx, expected_data = build_skb_context_per_field(packet, **kwargs)
        ctx, image = build_skb_context(packet, **kwargs)
        assert bytes(ctx) == bytes(expected_ctx)
        assert isinstance(image, PacketImage) and image.data is None
        assert len(image) == len(expected_data)
        assert image.materialize() == expected_data

    def test_empty_context_layout(self):
        ctx, data = ctxmod.build_empty_context(ifindex=5, cpu=6, hook_id=7)
        assert len(ctx) == ctxmod.CTX_SIZE and data == bytearray()
        assert context_field(ctx, ctxmod.OFF_IFINDEX, 4) == 5
        assert context_field(ctx, ctxmod.OFF_RX_CPU, 4) == 6
        assert context_field(ctx, ctxmod.OFF_HOOK_ID, 4) == 7
        for offset, size in ((ctxmod.OFF_DATA, 8), (ctxmod.OFF_DATA_END, 8)):
            assert context_field(ctx, offset, size) == ctxmod.PACKET_REGION_BASE
        assert context_field(ctx, ctxmod.OFF_LEN, 4) == 0


def _udp(payload=b"payload"):
    return make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, payload)


def _tcp(options):
    return make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"data", options=options)


class TestWireLength:
    @pytest.mark.parametrize(
        "packet, use_inner",
        [
            (_udp(), False),
            (_udp(b""), False),
            (_tcp(b"\xfd\x06\x01\x02\x03\x04\x01\x01"), False),
            (_vxlan(_udp()), True),
            (_vxlan(_tcp(b"\x01" * 4)), True),
            (_vxlan(_vxlan(_tcp(b"\x01" * 40))), True),
        ],
    )
    def test_off_len_is_serialized_length(self, packet, use_inner):
        ctx, image = build_skb_context(packet, use_inner=use_inner)
        wire = packet.to_bytes()
        assert context_field(ctx, ctxmod.OFF_LEN, 4) == len(wire) == len(image)
        start = context_field(ctx, ctxmod.OFF_DATA, 8)
        assert context_field(ctx, ctxmod.OFF_DATA_END, 8) - start == len(wire)

    @settings(max_examples=80, deadline=None)
    @given(packet=any_packets())
    def test_total_length_is_serialized_length(self, packet):
        assert packet.total_length == len(packet.to_bytes())


@pytest.fixture
def count_serializations(monkeypatch):
    """Record every Packet.to_bytes call (nested packets included)."""
    calls = []
    original = Packet.to_bytes

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Packet, "to_bytes", counting)
    return calls


def _traced_udp():
    packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1000, 4000, b"payload")
    TraceIDEngine(SeededRNG(7, "ids")).embed_udp(packet)
    return packet


def _traced_tcp():
    packet = make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 1000, 4000, b"segment")
    TraceIDEngine(SeededRNG(7, "ids")).embed_tcp(packet)
    return packet


TIERS = {
    "compiled": dict(precompile=True, shadow=False),
    "interpreter": dict(precompile=False, shadow=False),
    "shadow": dict(precompile=True, shadow=True),
}


# One spec per ID mode: every TracepointSpec gets a fresh tracepoint id,
# which the records carry.
TRACEPOINTS = {
    mode: TracepointSpec(node="n", hook="dev:x", id_mode=mode)
    for mode in (ID_MODE_NONE, ID_MODE_UDP_TRAILER, ID_MODE_TCP_OPTION)
}


def _script(id_mode, tier, dst_port=4000):
    perf = PerfEventArray(num_cpus=1)
    counter = PerCPUArrayMap(8, 1, 1)
    program, maps = compile_script(
        FilterRule(dst_port=dst_port),
        TRACEPOINTS[id_mode],
        ActionSpec(record=True, count=True),
        perf_map=perf,
        counter_map=counter,
    )
    program.precompile = TIERS[tier]["precompile"]
    program.shadow = TIERS[tier]["shadow"]
    program.load()
    return program, ExecutionEnv(maps=maps, clock=lambda: 4242), perf


class TestLazyImage:
    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_filter_miss_never_serializes(self, tier, count_serializations):
        program, env, perf = _script(ID_MODE_UDP_TRAILER, tier, dst_port=9999)
        hooks = HookRegistry("n")
        attachment = EBPFAttachment(program, env)
        hooks.attach("dev:x", attachment)
        packet = _traced_udp()
        count_serializations.clear()
        assert hooks.fire(ProbeEvent(hook="dev:x", node="n", packet=packet)) > 0
        assert attachment.events_seen == 1 and attachment.events_matched == 0
        assert count_serializations == []
        assert perf.pending == []

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_filter_hit_serializes_once(self, tier, count_serializations):
        program, env, perf = _script(ID_MODE_UDP_TRAILER, tier)
        ctx, image = build_skb_context(_traced_udp())
        count_serializations.clear()
        result = program.run(env, ctx, image)
        assert result.r0 == 1 and len(perf.pending) == 1
        # The shadow tier's oracle serializes its own image of the packet.
        assert len(count_serializations) == (2 if tier == "shadow" else 1)
        assert image.data is not None

    @pytest.mark.parametrize(
        "id_mode, make",
        [(ID_MODE_UDP_TRAILER, _traced_udp), (ID_MODE_TCP_OPTION, _traced_tcp)],
    )
    def test_id_read_agrees_across_tiers(self, id_mode, make):
        outcomes = {}
        for tier in sorted(TIERS):
            for lazy in (False, True):
                program, env, perf = _script(id_mode, tier)
                ctx, data = build_skb_context(make())
                if not lazy:
                    data = data.materialize()  # a plain bytearray, mapped up front
                result = program.run(env, ctx, data)
                outcomes[tier, lazy] = (result.r0, result.insns_executed, list(perf.pending))
        reference = outcomes["compiled", False]
        assert reference[0] == 1 and len(reference[2]) == 1
        assert all(outcome == reference for outcome in outcomes.values())

    def test_id_free_script_never_serializes(self, count_serializations):
        program, env, perf = _script(ID_MODE_NONE, "compiled")
        ctx, image = build_skb_context(_traced_udp())
        count_serializations.clear()
        assert program.run(env, ctx, image).r0 == 1
        assert count_serializations == [] and len(perf.pending) == 1


def _load_at_data_end(offset: int, tier: str) -> BPFProgram:
    asm = Assembler()
    asm.ldx_dw(R2, R1, ctxmod.OFF_DATA_END)
    asm.ldx_b(R0, R2, offset)
    asm.exit_()
    program = BPFProgram(asm.assemble(), name="edge", **TIERS[tier])
    program.load()
    return program


class TestPacketBounds:
    @pytest.mark.parametrize("tier", sorted(TIERS))
    @pytest.mark.parametrize("offset", [0, 3, 100])
    def test_load_past_data_end_faults(self, tier, offset, count_serializations):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"abc")
        ctx, image = build_skb_context(packet)
        count_serializations.clear()
        with pytest.raises(MemoryFault):
            _load_at_data_end(offset, tier).run(ExecutionEnv(), ctx, image)
        assert count_serializations == [] and image.data is None

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_last_byte_loads(self, tier):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"abc")
        ctx, image = build_skb_context(packet)
        assert _load_at_data_end(-1, tier).run(ExecutionEnv(), ctx, image).r0 == ord("c")

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_helper_reads_packet_bytes(self, tier):
        # perf_event_output straight from the packet: the helper's memory
        # lookup, not a load, is the first touch.
        perf = PerfEventArray(num_cpus=1)
        asm = Assembler()
        asm.ld_map_fd(R2, perf.fd)
        asm.mov_imm(R3, BPF_F_CURRENT_CPU)
        asm.ldx_dw(R4, R1, ctxmod.OFF_DATA)
        asm.mov_imm(R5, 14)
        asm.call(HELPER_PERF_EVENT_OUTPUT)
        asm.mov_imm(R0, 0)
        asm.exit_()
        program = BPFProgram(asm.assemble(), {perf.fd: perf}, name="copy", **TIERS[tier])
        program.load()
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"abc")
        ctx, image = build_skb_context(packet)
        program.run(ExecutionEnv(maps={perf.fd: perf}), ctx, image)
        assert perf.pending == [(0, packet.to_bytes()[:14])]

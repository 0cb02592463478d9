"""Packet and header wire formats."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    HeaderError,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Header,
    Packet,
    TCPHeader,
    TCPOPT_TRACE_ID,
    UDPHeader,
    VXLANHeader,
    make_tcp_packet,
    make_udp_packet,
)

MAC_A = MACAddress.from_index(1)
MAC_B = MACAddress.from_index(2)
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")

ports = st.integers(min_value=1, max_value=65535)
payloads = st.binary(min_size=0, max_size=200)


class TestHeaderRoundtrips:
    def test_ethernet_roundtrip(self):
        header = EthernetHeader(MAC_B, MAC_A, 0x0800)
        parsed = EthernetHeader.unpack(header.pack())
        assert (parsed.dst, parsed.src, parsed.ethertype) == (MAC_B, MAC_A, 0x0800)

    def test_ipv4_roundtrip(self):
        header = IPv4Header(IP_A, IP_B, IPPROTO_UDP, ttl=17, identification=0xBEEF)
        parsed = IPv4Header.unpack(header.pack())
        assert parsed.src == IP_A and parsed.dst == IP_B
        assert parsed.ttl == 17 and parsed.identification == 0xBEEF

    def test_udp_roundtrip(self):
        parsed = UDPHeader.unpack(UDPHeader(1111, 2222, 100).pack())
        assert (parsed.src_port, parsed.dst_port, parsed.udp_length) == (1111, 2222, 100)

    def test_tcp_roundtrip_with_options(self):
        options = b"\x01\x01" + bytes([TCPOPT_TRACE_ID, 6]) + b"\xaa\xbb\xcc\xdd"
        header = TCPHeader(80, 443, seq=12345, ack=54321, flags=0x18, options=options)
        parsed = TCPHeader.unpack(header.pack())
        assert parsed.seq == 12345 and parsed.ack == 54321
        assert parsed.options == options
        assert parsed.find_option(TCPOPT_TRACE_ID) == b"\xaa\xbb\xcc\xdd"

    def test_vxlan_roundtrip(self):
        parsed = VXLANHeader.unpack(VXLANHeader(0xABCDE).pack())
        assert parsed.vni == 0xABCDE

    def test_vxlan_bad_vni(self):
        with pytest.raises(HeaderError):
            VXLANHeader(1 << 24)

    def test_tcp_options_must_be_aligned(self):
        with pytest.raises(HeaderError):
            TCPHeader(1, 2, options=b"\x01\x01\x01")

    def test_tcp_find_option_absent(self):
        assert TCPHeader(1, 2).find_option(TCPOPT_TRACE_ID) is None

    def test_truncated_headers_rejected(self):
        for cls in (EthernetHeader, IPv4Header, UDPHeader, TCPHeader, VXLANHeader):
            with pytest.raises(HeaderError):
                cls.unpack(b"\x00\x01")


class TestPacket:
    @given(src_port=ports, dst_port=ports, payload=payloads)
    def test_udp_wire_roundtrip(self, src_port, dst_port, payload):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, src_port, dst_port, payload)
        # Plain UDP for every generated port, 4789 included: by default
        # from_bytes would parse a payload sent to 4789 as VXLAN
        # (test_vxlan_encapsulation_nests); port 0 is never generated.
        parsed = Packet.from_bytes(packet.to_bytes(), decapsulate_vxlan_port=0)
        assert parsed.udp.src_port == src_port
        assert parsed.udp.dst_port == dst_port
        assert parsed.payload == payload
        assert parsed.ip.src == IP_A

    @given(seq=st.integers(min_value=0, max_value=0xFFFFFFFF), payload=payloads)
    def test_tcp_wire_roundtrip(self, seq, payload):
        packet = make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 10, 20, payload, seq=seq)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.tcp.seq == seq
        assert parsed.payload == payload

    def test_lengths_consistent(self):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"x" * 50)
        assert packet.total_length == 14 + 20 + 8 + 50
        assert len(packet.to_bytes()) == packet.total_length

    def test_udp_length_field_fixed_up(self):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"x" * 50)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.udp.udp_length == 8 + 50

    def test_uids_are_unique(self):
        a = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"")
        b = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"")
        assert a.uid != b.uid

    def test_clone_copies_structure_not_identity(self):
        packet = make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"abc", seq=9)
        packet.metadata["k"] = "v"
        packet.log_point("n", "p", 1)
        clone = packet.clone()
        assert clone.uid != packet.uid
        assert clone.path == []
        assert clone.metadata == {"k": "v"}
        clone.tcp.seq = 100
        assert packet.tcp.seq == 9  # deep header copy

    def test_vxlan_encapsulation_nests(self):
        inner = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 5, 6, b"inner-data")
        outer = Packet(
            [
                EthernetHeader(MAC_B, MAC_A),
                IPv4Header(IPv4Address("192.168.0.1"), IPv4Address("192.168.0.2"), IPPROTO_UDP),
                UDPHeader(49152, 4789),
                VXLANHeader(42),
            ],
            inner,
        )
        assert outer.inner is inner
        assert outer.innermost is inner
        assert outer.total_length == 14 + 20 + 8 + 8 + inner.total_length
        parsed = Packet.from_bytes(outer.to_bytes())
        assert parsed.vxlan.vni == 42
        assert parsed.inner is not None
        assert parsed.inner.payload == b"inner-data"
        assert parsed.innermost.udp.dst_port == 6

    def test_path_log_records_points(self, engine):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"")
        packet.log_point("node1", "dev:eth0:tx", 100, cpu=2)
        assert packet.path_summary() == [("node1", "dev:eth0:tx")]
        assert packet.path[0].cpu == 2

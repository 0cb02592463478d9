"""Packets and binary header layouts.

Headers serialize to real wire format.  That matters because the eBPF
tracing scripts this repo compiles do not inspect Python objects -- they
load bytes at header offsets out of the serialized packet image, exactly
like a socket-filter program reading ``skb`` data.  A packet therefore
carries both its structured form (cheap for the simulator to route) and,
on demand, its byte image (what programs see).

Encapsulation nests: a VXLAN packet is an outer
Ethernet/IPv4/UDP/VXLAN whose payload is the entire inner packet, as in
the paper's Docker overlay network (§IV-E), where tracing scripts must
"strip the VXLAN header off to read the skb information".
"""

from __future__ import annotations

import itertools
import struct
from typing import List, Optional, Tuple, Union

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.checksum import internet_checksum

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

TCP_FLAG_FIN = 0x01
TCP_FLAG_SYN = 0x02
TCP_FLAG_RST = 0x04
TCP_FLAG_PSH = 0x08
TCP_FLAG_ACK = 0x10

# TCP option kind used for the embedded vNetTracer trace ID (§III-B uses a
# 4-byte space in the TCP options; we follow the experimental-use kind).
TCPOPT_TRACE_ID = 0xFD

_packet_uid_counter = itertools.count(1)

_IPV4_STRUCT = struct.Struct("!BBHHHBBHII")


class HeaderError(ValueError):
    """Raised when a header cannot be built or parsed."""


class EthernetHeader:
    """14-byte Ethernet II header."""

    __slots__ = ("dst", "src", "ethertype")

    LENGTH = 14
    length = LENGTH

    def __init__(self, dst: MACAddress, src: MACAddress, ethertype: int = ETHERTYPE_IPV4):
        self.dst = MACAddress(dst)
        self.src = MACAddress(src)
        self.ethertype = ethertype

    def pack(self) -> bytes:
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack("!H", self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError("truncated Ethernet header")
        return cls(
            MACAddress.from_bytes(data[0:6]),
            MACAddress.from_bytes(data[6:12]),
            struct.unpack("!H", data[12:14])[0],
        )

    def __repr__(self) -> str:
        return f"<Eth {self.src}->{self.dst} type=0x{self.ethertype:04x}>"


class IPv4Header:
    """20-byte IPv4 header (no IP options)."""

    __slots__ = ("src", "dst", "protocol", "ttl", "identification", "total_length", "dscp")

    LENGTH = 20
    length = LENGTH

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        protocol: int,
        ttl: int = 64,
        identification: int = 0,
        total_length: int = 0,
        dscp: int = 0,
    ):
        self.src = IPv4Address(src)
        self.dst = IPv4Address(dst)
        self.protocol = protocol
        self.ttl = ttl
        self.identification = identification & 0xFFFF
        self.total_length = total_length
        self.dscp = dscp

    def pack(self) -> bytes:
        version_ihl = (4 << 4) | 5
        header_wo_csum = _IPV4_STRUCT.pack(
            version_ihl,
            self.dscp << 2,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset: never fragmented in this substrate
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.src.value,
            self.dst.value,
        )
        csum = internet_checksum(header_wo_csum)
        return header_wo_csum[:10] + csum.to_bytes(2, "big") + header_wo_csum[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < cls.LENGTH:
            raise HeaderError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            _frag,
            ttl,
            protocol,
            _csum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:20])
        if version_ihl >> 4 != 4:
            raise HeaderError(f"not IPv4 (version={version_ihl >> 4})")
        return cls(
            IPv4Address.from_bytes(src),
            IPv4Address.from_bytes(dst),
            protocol,
            ttl=ttl,
            identification=identification,
            total_length=total_length,
            dscp=tos >> 2,
        )

    def __repr__(self) -> str:
        return f"<IPv4 {self.src}->{self.dst} proto={self.protocol} ttl={self.ttl}>"


class UDPHeader:
    """8-byte UDP header."""

    __slots__ = ("src_port", "dst_port", "udp_length", "checksum")

    LENGTH = 8
    length = LENGTH

    def __init__(self, src_port: int, dst_port: int, udp_length: int = 0, checksum: int = 0):
        self.src_port = src_port
        self.dst_port = dst_port
        self.udp_length = udp_length
        self.checksum = checksum

    def pack(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.udp_length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError("truncated UDP header")
        src_port, dst_port, udp_length, checksum = struct.unpack("!HHHH", data[:8])
        return cls(src_port, dst_port, udp_length, checksum)

    def __repr__(self) -> str:
        return f"<UDP {self.src_port}->{self.dst_port} len={self.udp_length}>"


class TCPHeader:
    """TCP header with an options area (where the trace ID lives)."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window", "options")

    BASE_LENGTH = 20

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = TCP_FLAG_ACK,
        window: int = 65535,
        options: bytes = b"",
    ):
        if len(options) % 4 != 0:
            raise HeaderError("TCP options must be padded to 4-byte multiples")
        if len(options) > 40:
            raise HeaderError("TCP options exceed 40 bytes")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = window
        self.options = bytes(options)

    @property
    def data_offset_words(self) -> int:
        return (self.BASE_LENGTH + len(self.options)) // 4

    @property
    def length(self) -> int:
        return self.BASE_LENGTH + len(self.options)

    def pack(self) -> bytes:
        offset_flags = (self.data_offset_words << 12) | (self.flags & 0x1FF)
        return (
            struct.pack(
                "!HHIIHHHH",
                self.src_port,
                self.dst_port,
                self.seq,
                self.ack,
                offset_flags,
                self.window,
                0,  # checksum: offloaded in this substrate
                0,  # urgent pointer
            )
            + self.options
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        if len(data) < cls.BASE_LENGTH:
            raise HeaderError("truncated TCP header")
        (src_port, dst_port, seq, ack, offset_flags, window, _csum, _urg) = struct.unpack(
            "!HHIIHHHH", data[:20]
        )
        data_offset = (offset_flags >> 12) * 4
        if data_offset < cls.BASE_LENGTH or len(data) < data_offset:
            raise HeaderError("bad TCP data offset")
        options = data[cls.BASE_LENGTH : data_offset]
        return cls(
            src_port,
            dst_port,
            seq=seq,
            ack=ack,
            flags=offset_flags & 0x1FF,
            window=window,
            options=options,
        )

    def find_option(self, kind: int) -> Optional[bytes]:
        """Return the value bytes of a TLV option, or None."""
        buf = self.options
        i = 0
        while i < len(buf):
            opt_kind = buf[i]
            if opt_kind == 0:  # end of options
                return None
            if opt_kind == 1:  # NOP
                i += 1
                continue
            if i + 1 >= len(buf):
                return None
            opt_len = buf[i + 1]
            if opt_len < 2 or i + opt_len > len(buf):
                return None
            if opt_kind == kind:
                return buf[i + 2 : i + opt_len]
            i += opt_len
        return None

    def __repr__(self) -> str:
        return f"<TCP {self.src_port}->{self.dst_port} seq={self.seq} flags=0x{self.flags:x}>"


class VXLANHeader:
    """8-byte VXLAN header (RFC 7348)."""

    __slots__ = ("vni",)

    LENGTH = 8
    length = LENGTH

    def __init__(self, vni: int):
        if not 0 <= vni < (1 << 24):
            raise HeaderError(f"VNI out of range: {vni}")
        self.vni = vni

    def pack(self) -> bytes:
        return struct.pack("!BBHI", 0x08, 0, 0, self.vni << 8)

    @classmethod
    def unpack(cls, data: bytes) -> "VXLANHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError("truncated VXLAN header")
        flags, _r1, _r2, vni_field = struct.unpack("!BBHI", data[:8])
        if not flags & 0x08:
            raise HeaderError("VXLAN I flag not set")
        return cls(vni_field >> 8)

    def __repr__(self) -> str:
        return f"<VXLAN vni={self.vni}>"


Header = Union[EthernetHeader, IPv4Header, UDPHeader, TCPHeader, VXLANHeader]


class PathRecord:
    """Ground-truth record of a packet visiting an instrumentable point.

    The simulator appends these as packets move; tests validate the
    vNetTracer-measured decompositions against them.  (Real systems have
    no such oracle -- that is the paper's point.)
    """

    __slots__ = ("node", "point", "true_time_ns", "cpu")

    def __init__(self, node: str, point: str, true_time_ns: int, cpu: int = 0):
        self.node = node
        self.point = point
        self.true_time_ns = true_time_ns
        self.cpu = cpu

    def __repr__(self) -> str:
        return f"<Path {self.node}:{self.point}@{self.true_time_ns}ns cpu{self.cpu}>"


class Packet:
    """A simulated packet: structured headers + payload (+ wire image on demand).

    ``payload`` is either raw bytes or a nested :class:`Packet`
    (encapsulation).  ``uid`` is a simulator-level identity; the 32-bit
    trace ID that vNetTracer embeds lives *in the header bytes*, not
    here, because tracing must work off what is actually on the wire.
    """

    __slots__ = (
        "headers",
        "payload",
        "uid",
        "path",
        "app",
        "app_seq",
        "created_at_ns",
        "metadata",
    )

    def __init__(
        self,
        headers: List[Header],
        payload: Union[bytes, "Packet"] = b"",
        app: str = "",
        app_seq: int = 0,
        created_at_ns: int = 0,
    ):
        self.headers = list(headers)
        self.payload = payload
        self.uid = next(_packet_uid_counter)
        self.path: List[PathRecord] = []
        self.app = app
        self.app_seq = app_seq
        self.created_at_ns = created_at_ns
        self.metadata: dict = {}

    # -- structured accessors ------------------------------------------------

    def _find(self, header_type) -> Optional[Header]:
        # Exact type match: no header class has subclasses.
        for header in self.headers:
            if type(header) is header_type:
                return header
        return None

    @property
    def eth(self) -> Optional[EthernetHeader]:
        return self._find(EthernetHeader)

    @property
    def ip(self) -> Optional[IPv4Header]:
        return self._find(IPv4Header)

    @property
    def udp(self) -> Optional[UDPHeader]:
        return self._find(UDPHeader)

    @property
    def tcp(self) -> Optional[TCPHeader]:
        return self._find(TCPHeader)

    @property
    def vxlan(self) -> Optional[VXLANHeader]:
        return self._find(VXLANHeader)

    @property
    def inner(self) -> Optional["Packet"]:
        """The encapsulated packet, if this is a tunnel packet."""
        return self.payload if isinstance(self.payload, Packet) else None

    @property
    def innermost(self) -> "Packet":
        """Follow encapsulation down to the original packet."""
        packet = self
        while isinstance(packet.payload, Packet):
            packet = packet.payload
        return packet

    # -- sizes ---------------------------------------------------------------

    @property
    def payload_length(self) -> int:
        if isinstance(self.payload, Packet):
            return self.payload.total_length
        return len(self.payload)

    @property
    def header_length(self) -> int:
        return sum(h.length for h in self.headers)

    @property
    def total_length(self) -> int:
        # header_length + payload_length, inlined: every hop reads it.
        payload = self.payload
        length = payload.total_length if isinstance(payload, Packet) else len(payload)
        for header in self.headers:
            length += header.length
        return length

    # -- wire image ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to wire format, fixing up length fields."""
        payload_bytes = (
            self.payload.to_bytes() if isinstance(self.payload, Packet) else bytes(self.payload)
        )
        pieces: List[bytes] = []
        # Walk from the innermost layer outward so length fields include
        # everything beneath them.
        trailing = payload_bytes
        for header in reversed(self.headers):
            if isinstance(header, UDPHeader):
                header.udp_length = UDPHeader.LENGTH + len(trailing)
            elif isinstance(header, IPv4Header):
                header.total_length = IPv4Header.LENGTH + len(trailing)
            trailing = header.pack() + trailing
        pieces.append(trailing)
        return b"".join(pieces)

    @classmethod
    def from_bytes(cls, data: bytes, decapsulate_vxlan_port: int = 4789) -> "Packet":
        """Parse a wire image (Ethernet first).  VXLAN payloads on the
        given UDP port are recursively parsed as inner packets."""
        eth = EthernetHeader.unpack(data)
        offset = eth.length
        headers: List[Header] = [eth]
        payload: Union[bytes, Packet] = b""
        if eth.ethertype == ETHERTYPE_IPV4:
            ip = IPv4Header.unpack(data[offset:])
            headers.append(ip)
            offset += ip.length
            if ip.protocol == IPPROTO_UDP:
                udp = UDPHeader.unpack(data[offset:])
                headers.append(udp)
                offset += udp.length
                if udp.dst_port == decapsulate_vxlan_port:
                    vxlan = VXLANHeader.unpack(data[offset:])
                    headers.append(vxlan)
                    offset += vxlan.length
                    payload = cls.from_bytes(data[offset:], decapsulate_vxlan_port)
                else:
                    payload = data[offset:]
            elif ip.protocol == IPPROTO_TCP:
                tcp = TCPHeader.unpack(data[offset:])
                headers.append(tcp)
                offset += tcp.length
                payload = data[offset:]
            else:
                payload = data[offset:]
        else:
            payload = data[offset:]
        return cls(headers, payload)

    def clone(self) -> "Packet":
        """A structural copy with a fresh uid and empty path log (used
        when a bridge floods one frame out several ports)."""
        import copy

        duplicate = Packet(
            copy.deepcopy(self.headers),
            self.payload.clone() if isinstance(self.payload, Packet) else self.payload,
            app=self.app,
            app_seq=self.app_seq,
            created_at_ns=self.created_at_ns,
        )
        duplicate.metadata = dict(self.metadata)
        return duplicate

    # -- ground truth path log -----------------------------------------------

    def log_point(self, node: str, point: str, true_time_ns: int, cpu: int = 0) -> None:
        self.path.append(PathRecord(node, point, true_time_ns, cpu))

    def path_summary(self) -> List[Tuple[str, str]]:
        return [(rec.node, rec.point) for rec in self.path]

    def __repr__(self) -> str:
        layers = "/".join(type(h).__name__.replace("Header", "") for h in self.headers)
        return f"<Packet#{self.uid} {layers} len={self.total_length} app={self.app!r}>"


def make_udp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
    app: str = "",
    app_seq: int = 0,
    created_at_ns: int = 0,
) -> Packet:
    """Convenience constructor for a plain UDP datagram."""
    headers: List[Header] = [
        EthernetHeader(dst_mac, src_mac, ETHERTYPE_IPV4),
        IPv4Header(src_ip, dst_ip, IPPROTO_UDP),
        UDPHeader(src_port, dst_port),
    ]
    return Packet(headers, payload, app=app, app_seq=app_seq, created_at_ns=created_at_ns)


def make_tcp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
    seq: int = 0,
    ack: int = 0,
    flags: int = TCP_FLAG_ACK,
    options: bytes = b"",
    app: str = "",
    app_seq: int = 0,
    created_at_ns: int = 0,
) -> Packet:
    """Convenience constructor for a TCP segment."""
    headers: List[Header] = [
        EthernetHeader(dst_mac, src_mac, ETHERTYPE_IPV4),
        IPv4Header(src_ip, dst_ip, IPPROTO_TCP),
        TCPHeader(src_port, dst_port, seq=seq, ack=ack, flags=flags, options=options),
    ]
    return Packet(headers, payload, app=app, app_seq=app_seq, created_at_ns=created_at_ns)

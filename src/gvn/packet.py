"""Version-tagged IP datagram model used by the codec and the simulator.

Packets are immutable; every mangling operation returns a new packet and the
IPv4 header checksum is recomputed on serialization, so a packet that parses
is always re-serializable to valid bytes.

IPv4 headers are carried without options (IHL fixed at 5); IPv6 packets carry
no extension headers between the base header and the payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv6Address, ip_address
from typing import Union

from .errors import BadLength, InvalidPacket

IPAddress = Union[IPv4Address, IPv6Address]

IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40
IP_MAX_LEN = 65535

# Transport protocols an ordinary host knows how to hand upward.
KNOWN_TRANSPORTS = frozenset({1, 6, 17, 58})


def ipv4_header_checksum(header_bytes: bytes) -> int:
    """One's-complement checksum of an IPv4 header.

    The checksum field (bytes 10-11) is treated as zero regardless of its
    current contents, so the function can both fill and verify headers.
    Raises BadLength unless the input is at least 20 bytes and 4-aligned.
    """
    if len(header_bytes) < IPV4_HEADER_LEN or len(header_bytes) % 4 != 0:
        raise BadLength(f"need a 4-aligned header of >= 20 bytes, got {len(header_bytes)}")
    total = 0
    for i in range(0, len(header_bytes), 2):
        if i == 10:
            continue
        total += (header_bytes[i] << 8) | header_bytes[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def ipv4_checksum_valid(header_bytes: bytes) -> bool:
    """True iff the one's-complement sum over the full header is 0xFFFF."""
    if len(header_bytes) < IPV4_HEADER_LEN or len(header_bytes) % 4 != 0:
        raise BadLength(f"need a 4-aligned header of >= 20 bytes, got {len(header_bytes)}")
    total = 0
    for i in range(0, len(header_bytes), 2):
        total += (header_bytes[i] << 8) | header_bytes[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF


def _check_octet(name: str, value: int) -> None:
    if not 0 <= value <= 0xFF:
        raise InvalidPacket(f"{name} must fit one octet, got {value}")


@dataclass(frozen=True)
class IpPacket:
    """An IPv4 or IPv6 datagram.

    ``protocol`` is the IPv4 Protocol field / IPv6 Next Header of the first
    payload header; ``ttl`` doubles as the IPv6 Hop Limit.  The v4-only
    fields (tos, ident, flags, frag_offset) and v6-only fields
    (traffic_class, flow_label) ride along untouched through every mangle.
    """

    version: int
    src: IPAddress
    dst: IPAddress
    protocol: int
    ttl: int
    payload: bytes = b""
    tos: int = 0
    ident: int = 0
    flags: int = 0
    frag_offset: int = 0
    traffic_class: int = 0
    flow_label: int = 0

    def __post_init__(self) -> None:
        if self.version not in (4, 6):
            raise InvalidPacket(f"version must be 4 or 6, got {self.version}")
        expect = IPv4Address if self.version == 4 else IPv6Address
        if not isinstance(self.src, expect) or not isinstance(self.dst, expect):
            raise InvalidPacket("address family does not match packet version")
        _check_octet("protocol", self.protocol)
        _check_octet("ttl", self.ttl)
        if self.version == 4:
            if IPV4_HEADER_LEN + len(self.payload) > IP_MAX_LEN:
                raise InvalidPacket("IPv4 total length exceeds 65535")
        elif len(self.payload) > IP_MAX_LEN:
            raise InvalidPacket("IPv6 payload length exceeds 65535")

    @property
    def header_bytes(self) -> bytes:
        """Serialized network-layer header (checksummed for v4)."""
        if self.version == 4:
            return self._v4_header()
        return self._v6_header()

    @property
    def total_length(self) -> int:
        hlen = IPV4_HEADER_LEN if self.version == 4 else IPV6_HEADER_LEN
        return hlen + len(self.payload)

    def _v4_header(self) -> bytes:
        flags_frag = ((self.flags & 0x7) << 13) | (self.frag_offset & 0x1FFF)
        head = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,
            self.tos,
            IPV4_HEADER_LEN + len(self.payload),
            self.ident,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
            self.src.packed,
            self.dst.packed,
        )
        checksum = ipv4_header_checksum(head)
        return head[:10] + struct.pack("!H", checksum) + head[12:]

    def _v6_header(self) -> bytes:
        first = (6 << 28) | ((self.traffic_class & 0xFF) << 20) | (self.flow_label & 0xFFFFF)
        return struct.pack(
            "!IHBB16s16s",
            first,
            len(self.payload),
            self.protocol,
            self.ttl,
            self.src.packed,
            self.dst.packed,
        )

    def to_bytes(self) -> bytes:
        return self.header_bytes + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "IpPacket":
        if len(data) < 1:
            raise InvalidPacket("empty buffer")
        version = data[0] >> 4
        if version == 4:
            return cls._parse_v4(data)
        if version == 6:
            return cls._parse_v6(data)
        raise InvalidPacket(f"unknown IP version nibble {version}")

    @classmethod
    def _parse_v4(cls, data: bytes) -> "IpPacket":
        if len(data) < IPV4_HEADER_LEN:
            raise InvalidPacket("short IPv4 header")
        (ver_ihl, tos, total_len, ident, flags_frag, ttl, proto, _cksum,
         src, dst) = struct.unpack("!BBHHHBBH4s4s", data[:IPV4_HEADER_LEN])
        if ver_ihl & 0xF != 5:
            raise InvalidPacket("IPv4 options are not supported")
        if total_len < IPV4_HEADER_LEN or total_len > len(data):
            raise InvalidPacket("IPv4 total length inconsistent with buffer")
        return cls(
            version=4,
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            protocol=proto,
            ttl=ttl,
            payload=data[IPV4_HEADER_LEN:total_len],
            tos=tos,
            ident=ident,
            flags=(flags_frag >> 13) & 0x7,
            frag_offset=flags_frag & 0x1FFF,
        )

    @classmethod
    def _parse_v6(cls, data: bytes) -> "IpPacket":
        if len(data) < IPV6_HEADER_LEN:
            raise InvalidPacket("short IPv6 header")
        first, plen, nxt, hop, src, dst = struct.unpack("!IHBB16s16s", data[:IPV6_HEADER_LEN])
        if IPV6_HEADER_LEN + plen > len(data):
            raise InvalidPacket("IPv6 payload length inconsistent with buffer")
        return cls(
            version=6,
            src=IPv6Address(src),
            dst=IPv6Address(dst),
            protocol=nxt,
            ttl=hop,
            payload=data[IPV6_HEADER_LEN:IPV6_HEADER_LEN + plen],
            traffic_class=(first >> 20) & 0xFF,
            flow_label=first & 0xFFFFF,
        )

    def _with(self, changes: dict) -> "IpPacket":
        # A copy of the field dict with ``changes`` applied, then the full
        # __post_init__ check: cheaper than the frozen-dataclass __init__,
        # which pays one object.__setattr__ per field.
        packet = object.__new__(IpPacket)
        fields = packet.__dict__
        fields.update(self.__dict__)
        fields.update(changes)
        packet.__post_init__()
        return packet

    def with_protocol_and_payload(self, protocol: int, payload: bytes) -> "IpPacket":
        return self._with({"protocol": protocol, "payload": payload})

    def with_dst(self, dst: IPAddress) -> "IpPacket":
        return self._with({"dst": dst})

    def with_ttl(self, ttl: int) -> "IpPacket":
        # Only the TTL changes, so only the TTL needs checking.
        _check_octet("ttl", ttl)
        fields = self.__dict__.copy()
        fields["ttl"] = ttl
        packet = object.__new__(IpPacket)
        object.__setattr__(packet, "__dict__", fields)
        return packet


def make_packet(version: int, src: str, dst: str, protocol: int, ttl: int,
                payload: bytes = b"", **extra) -> IpPacket:
    """Convenience constructor from textual addresses."""
    return IpPacket(version=version, src=ip_address(src), dst=ip_address(dst),
                    protocol=protocol, ttl=ttl, payload=payload, **extra)

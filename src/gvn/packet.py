"""Version-tagged IP datagram model used by the codec and the simulator.

Packets are immutable; every mangling operation returns a new packet and the
IPv4 header checksum is recomputed on serialization, so a packet that parses
is always re-serializable to valid bytes.  Each way of building a packet
checks only the fields it sets: the constructor all twelve, the parser what
its wire layout leaves open, and each ``with_*`` copy the fields it changes.
Each header is one ``struct`` call each way.  A packet is the tuple of its
fields: each builder makes one in one frame and one C call, ``to_bytes``
unpacks it in one step and folds the IPv4 checksum inline, and a check's
helper is called only to raise.

IPv4 headers are carried without options (IHL fixed at 5); IPv6 packets carry
no extension headers between the base header and the payload.
"""

from __future__ import annotations

import struct
from collections import _tuplegetter
from ipaddress import IPv4Address, IPv6Address, ip_address
from typing import Union

from .errors import BadLength, InvalidPacket

IPAddress = Union[IPv4Address, IPv6Address]

IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40
IP_MAX_LEN = 65535

# Transport protocols an ordinary host knows how to hand upward.
KNOWN_TRANSPORTS = frozenset({1, 6, 17, 58})

# Header layouts, each shared by its packer and its parser.
_V4_HEADER = struct.Struct("!BBHHHBBHII")
_V6_HEADER = struct.Struct("!IHBB16s16s")


def ipv4_header_checksum(header_bytes: bytes) -> int:
    """One's-complement checksum of an IPv4 header.

    The checksum field (bytes 10-11) is treated as zero regardless of its
    current contents, so the function can both fill and verify headers.
    Raises BadLength unless the input is at least 20 bytes and 4-aligned.
    """
    if len(header_bytes) < IPV4_HEADER_LEN or len(header_bytes) % 4 != 0:
        raise BadLength(f"need a 4-aligned header of >= 20 bytes, got {len(header_bytes)}")
    # 2**16 is 1 modulo 0xFFFF (RFC 1071): the words' sum folds to its remainder,
    # or to 0xFFFF for a nonzero multiple, and the checksum is 0xFFFF less the fold.
    number = int.from_bytes(header_bytes[:10] + header_bytes[12:], "big")
    return -number % 0xFFFF if number else 0xFFFF


def ipv4_checksum_valid(header_bytes: bytes) -> bool:
    """True iff the one's-complement sum over the full header is 0xFFFF."""
    if len(header_bytes) < IPV4_HEADER_LEN or len(header_bytes) % 4 != 0:
        raise BadLength(f"need a 4-aligned header of >= 20 bytes, got {len(header_bytes)}")
    number = int.from_bytes(header_bytes, "big")  # folds to 0xFFFF iff a nonzero multiple
    return number != 0 and number % 0xFFFF == 0


def _address(family: type, value: int) -> IPAddress:
    # ``family(value)`` without its type and range checks, which the header
    # layout meets; sets the private slots of ``ipaddress``'s own objects.
    address = object.__new__(family)
    address._ip = value
    if family is IPv6Address:
        address._scope_id = None
    return address


def _check_octet(name: str, value: int) -> None:
    if not 0 <= value <= 0xFF:
        raise InvalidPacket(f"{name} must fit one octet, got {value}")


def _check_family(version: int, address: IPAddress) -> None:
    if not isinstance(address, IPv4Address if version == 4 else IPv6Address):
        raise InvalidPacket("address family does not match packet version")


def _check_payload(version: int, payload: bytes) -> None:
    if version == 4:
        if IPV4_HEADER_LEN + len(payload) > IP_MAX_LEN:
            raise InvalidPacket("IPv4 total length exceeds 65535")
    elif len(payload) > IP_MAX_LEN:
        raise InvalidPacket("IPv6 payload length exceeds 65535")


class _Frozen(tuple):
    """Base of the wire layer's immutable records, in place of a frozen
    dataclass: importing ``dataclasses`` costs more than the rest of
    ``import gvn``.

    A record is the tuple of its fields, built by ``_build(cls, fields)``;
    a subclass names them in its annotations, sets ``__slots__ = ()`` and
    reads each through namedtuple's C getter.  Equality (within one class,
    never with a plain tuple), hash, ``repr``, ``__match_args__`` and
    ``vars()`` are a frozen dataclass's, and so is the refusal to order,
    assign or delete.  Copies and pickles go through the checked constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(cls.__annotations__)
        for index, name in enumerate(cls.__match_args__):
            setattr(cls, name, _tuplegetter(index, f"Field {index}, {name}."))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # A foreign tuple's own comparison would match the fields.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    def _unordered(self, other: object) -> bool:  # a bare tuple would order fieldwise
        raise TypeError(f"{self.__class__.__name__} records are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self)
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    __dict__ = property(lambda self: dict(zip(self.__match_args__, self)))  # for vars()

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(self)


_build = tuple.__new__  # a record from its fields in order, unchecked


class IpPacket(_Frozen):
    """An IPv4 or IPv6 datagram.

    ``protocol`` is the IPv4 Protocol field / IPv6 Next Header of the first
    payload header; ``ttl`` doubles as the IPv6 Hop Limit.  The v4-only
    fields (tos, ident, flags, frag_offset) and v6-only fields
    (traffic_class, flow_label) ride along untouched through every mangle.
    """

    __slots__ = ()

    version: int
    src: IPAddress
    dst: IPAddress
    protocol: int
    ttl: int
    payload: bytes
    tos: int
    ident: int
    flags: int
    frag_offset: int
    traffic_class: int
    flow_label: int

    def __new__(cls, version: int, src: IPAddress, dst: IPAddress, protocol: int, ttl: int,
                payload: bytes = b"", tos: int = 0, ident: int = 0, flags: int = 0,
                frag_offset: int = 0, traffic_class: int = 0, flow_label: int = 0) -> "IpPacket":
        packet = _build(cls, (version, src, dst, protocol, ttl, payload, tos, ident, flags,
                              frag_offset, traffic_class, flow_label))
        packet.__post_init__()
        return packet

    def __post_init__(self) -> None:
        if self.version not in (4, 6):
            raise InvalidPacket(f"version must be 4 or 6, got {self.version}")
        _check_family(self.version, self.src)
        _check_family(self.version, self.dst)
        _check_octet("protocol", self.protocol)
        _check_octet("ttl", self.ttl)
        _check_payload(self.version, self.payload)

    @property
    def header_bytes(self) -> bytes:
        """Serialized network-layer header (checksummed for v4): ``to_bytes``'s head."""
        return self.to_bytes()[:IPV4_HEADER_LEN if self.version == 4 else IPV6_HEADER_LEN]

    @property
    def total_length(self) -> int:
        hlen = IPV4_HEADER_LEN if self.version == 4 else IPV6_HEADER_LEN
        return hlen + len(self.payload)

    def to_bytes(self) -> bytes:
        (version, src, dst, protocol, ttl, payload, tos, ident, flags, frag_offset,
         traffic_class, flow_label) = self
        src, dst = src._ip, dst._ip
        if version == 6:
            first = (6 << 28) | ((traffic_class & 0xFF) << 20) | (flow_label & 0xFFFFF)
            return _V6_HEADER.pack(first, len(payload), protocol, ttl,
                                   src.to_bytes(16, "big"), dst.to_bytes(16, "big")) + payload
        total = IPV4_HEADER_LEN + len(payload)
        flags_frag = ((flags & 0x7) << 13) | (frag_offset & 0x1FFF)
        # Sum of the words, addresses whole (``256 *``: bad fields fail in pack), checksummed
        # as in ipv4_header_checksum; it holds 0x4500, so it is never 0.
        number = 0x4500 + tos + total + ident + flags_frag + 256 * ttl + protocol + src + dst
        return _V4_HEADER.pack(0x45, tos, total, ident, flags_frag, ttl, protocol,
                               -number % 0xFFFF, src, dst) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "IpPacket":
        # The layout bounds every field; the addresses are built as ``_address`` builds.
        if len(data) < 1:
            raise InvalidPacket("empty buffer")
        version = data[0] >> 4
        if version == 4:
            if len(data) < IPV4_HEADER_LEN:
                raise InvalidPacket("short IPv4 header")
            (ver_ihl, tos, total_len, ident, flags_frag, ttl, protocol, _cksum,
             src, dst) = _V4_HEADER.unpack_from(data)
            if ver_ihl & 0xF != 5:
                raise InvalidPacket("IPv4 options are not supported")
            if total_len < IPV4_HEADER_LEN or total_len > len(data):
                raise InvalidPacket("IPv4 total length inconsistent with buffer")
            source, destination = object.__new__(IPv4Address), object.__new__(IPv4Address)
            source._ip, destination._ip = src, dst
            payload, first = data[IPV4_HEADER_LEN:total_len], 0
        else:
            if version != 6:
                raise InvalidPacket(f"unknown IP version nibble {version}")
            if len(data) < IPV6_HEADER_LEN:
                raise InvalidPacket("short IPv6 header")
            first, plen, protocol, ttl, src, dst = _V6_HEADER.unpack_from(data)
            if IPV6_HEADER_LEN + plen > len(data):
                raise InvalidPacket("IPv6 payload length inconsistent with buffer")
            source, destination = object.__new__(IPv6Address), object.__new__(IPv6Address)
            source._ip, destination._ip = int.from_bytes(src, "big"), int.from_bytes(dst, "big")
            source._scope_id = destination._scope_id = None
            payload, tos, ident, flags_frag = data[IPV6_HEADER_LEN:IPV6_HEADER_LEN + plen], 0, 0, 0
        return _build(IpPacket, (version, source, destination, protocol, ttl, payload, tos, ident,
                                 flags_frag >> 13, flags_frag & 0x1FFF, first >> 20 & 0xFF,
                                 first & 0xFFFFF))

    def with_protocol_and_payload(self, protocol: int, payload: bytes) -> "IpPacket":
        # Every push and pop, in one frame as with_ttl; the checks run only
        # to raise (the IPv4 payload limit is the lower one).
        if not 0 <= protocol <= 0xFF:
            _check_octet("protocol", protocol)
        if len(payload) > IP_MAX_LEN - IPV4_HEADER_LEN:
            _check_payload(self.version, payload)
        (version, src, dst, _protocol, ttl, _payload, tos, ident, flags, frag_offset,
         traffic_class, flow_label) = self
        return _build(IpPacket, (version, src, dst, protocol, ttl, payload, tos, ident, flags,
                                 frag_offset, traffic_class, flow_label))

    def with_dst(self, dst: IPAddress) -> "IpPacket":
        return self._steered(dst, self.protocol, self.payload)

    def _steered(self, dst: IPAddress, protocol: int, payload: bytes) -> "IpPacket":
        # Every copy with a new dst: with_dst, and each chain step's
        # with_protocol_and_payload(protocol, payload).with_dst(dst) in one.
        (version, src, _dst, _protocol, ttl, _payload, tos, ident, flags, frag_offset,
         traffic_class, flow_label) = self
        if not 0 <= protocol <= 0xFF:
            _check_octet("protocol", protocol)
        if len(payload) > IP_MAX_LEN - IPV4_HEADER_LEN:
            _check_payload(version, payload)
        if not isinstance(dst, IPv4Address if version == 4 else IPv6Address):
            _check_family(version, dst)
        return _build(IpPacket, (version, src, dst, protocol, ttl, payload, tos, ident, flags,
                                 frag_offset, traffic_class, flow_label))

    def with_ttl(self, ttl: int) -> "IpPacket":
        # One frame per routed hop; _check_octet runs only to raise.
        if not 0 <= ttl <= 0xFF:
            _check_octet("ttl", ttl)
        (version, src, dst, protocol, _ttl, payload, tos, ident, flags, frag_offset,
         traffic_class, flow_label) = self
        return _build(IpPacket, (version, src, dst, protocol, ttl, payload, tos, ident, flags,
                                 frag_offset, traffic_class, flow_label))


def make_packet(version: int, src: str, dst: str, protocol: int, ttl: int,
                payload: bytes = b"", **extra) -> IpPacket:
    """Convenience constructor from textual addresses."""
    return IpPacket(version=version, src=ip_address(src), dst=ip_address(dst),
                    protocol=protocol, ttl=ttl, payload=payload, **extra)

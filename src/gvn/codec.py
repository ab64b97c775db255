"""Wire codec for the layer-3.5 GVN header and the tag push/pop operations.

Header layout (big-endian throughout)::

     0               1               2               3
     0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7
    +---------------+---------------+---------------+---------------+
    |    Length     |  Next header  |     Flags     |               |
    +---------------+---------------+---------------+               +
    |                      GVN code (5 octets)                      |
    +---------------+---------------+---------------+---------------+
    |              PL-specific header data (variable)               |
    +---------------------------------------------------------------+

Length counts 4-octet units, so the serialized header spans 8 to 1016 bytes
(length values 0 and 1 are invalid, 255 is reserved).  The header sits
between the IP header and the transport header and is carried with IP
protocol number 254; a node without GVN support just sees an unknown
transport protocol.

At most one GVN header rides on a packet; logics needing label stacks must
encode them inside their own data field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (
    AlreadyTagged,
    InvalidHeader,
    InvalidLength,
    MalformedHeader,
    NextHeaderMismatch,
    NotTagged,
    OversizePacket,
    ReservedLength,
    TruncatedHeader,
)
from .packet import IP_MAX_LEN, IPV4_HEADER_LEN, IpPacket

# Experimental IP protocol number carrying the GVN header (v4 and v6 alike).
GVN_PROTOCOL = 254

CODE_BITS = 40
CODE_MAX = (1 << CODE_BITS) - 1

MIN_LENGTH_UNITS = 2
MAX_LENGTH_UNITS = 254
RESERVED_LENGTH_UNITS = 255
MIN_HEADER_LEN = 4 * MIN_LENGTH_UNITS
MAX_HEADER_LEN = 4 * MAX_LENGTH_UNITS
MAX_PL_DATA = MAX_HEADER_LEN - MIN_HEADER_LEN

# Flag bit 7: drop at a GVN-capable node that cannot interpret the code
# (clear means fall back to plain IP forwarding).
FLAG_DROP_ON_UNKNOWN = 0x80


@dataclass(frozen=True)
class GvnHeader:
    """Parsed GVN header.

    ``length_units`` is derived from ``pl_data`` so a constructed header is
    always self-consistent; construction rejects field values that cannot be
    put on the wire.
    """

    next_header: int
    code: int
    flags: int = 0
    pl_data: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.next_header <= 0xFF:
            raise InvalidHeader(f"next_header {self.next_header} not an octet")
        if not 0 <= self.flags <= 0xFF:
            raise InvalidHeader(f"flags {self.flags:#x} not an octet")
        if not 0 <= self.code <= CODE_MAX:
            raise InvalidHeader(f"code {self.code:#x} outside the 40-bit space")
        if len(self.pl_data) % 4 != 0:
            raise InvalidHeader(f"pl_data length {len(self.pl_data)} not 4-aligned")
        if len(self.pl_data) > MAX_PL_DATA:
            raise InvalidHeader(f"pl_data length {len(self.pl_data)} exceeds {MAX_PL_DATA}")

    @property
    def length_units(self) -> int:
        return (MIN_HEADER_LEN + len(self.pl_data)) // 4

    @property
    def total_length(self) -> int:
        return MIN_HEADER_LEN + len(self.pl_data)

    @property
    def drop_on_unknown(self) -> bool:
        return bool(self.flags & FLAG_DROP_ON_UNKNOWN)


def serialize_gvn(header: GvnHeader) -> bytes:
    """Emit the header as exactly 4 * length_units octets."""
    return (
        struct.pack("!BBB", header.length_units, header.next_header, header.flags)
        + header.code.to_bytes(5, "big")
        + header.pl_data
    )


def parse_gvn(data: bytes) -> GvnHeader:
    """Parse a GVN header from the front of ``data``.

    Consumes exactly 4 * length_units octets; trailing bytes are ignored.
    """
    if len(data) < MIN_HEADER_LEN:
        raise TruncatedHeader(f"need {MIN_HEADER_LEN} octets, got {len(data)}")
    length_units = data[0]
    if length_units == RESERVED_LENGTH_UNITS:
        raise ReservedLength("length value 255 is reserved")
    if length_units < MIN_LENGTH_UNITS:
        raise InvalidLength(f"length value {length_units} below minimum 2")
    total = 4 * length_units
    if len(data) < total:
        raise TruncatedHeader(f"declared {total} octets, only {len(data)} present")
    # Trusted construction: GvnHeader.__post_init__ is skipped because the
    # checks above already imply every one of its conditions:
    #   next_header, flags -- each is one octet of ``data``, so 0..255;
    #   code               -- five unsigned octets, so 0..CODE_MAX;
    #   pl_data 4-aligned  -- it spans 4 * length_units - 8 octets;
    #   pl_data <= MAX_PL_DATA -- length_units <= 254, since 255 is refused.
    header = object.__new__(GvnHeader)
    fields = header.__dict__
    fields["next_header"] = data[1]
    fields["code"] = int.from_bytes(data[3:8], "big")
    fields["flags"] = data[2]
    fields["pl_data"] = bytes(data[8:total])
    return header


def push_gvn(packet: IpPacket, header: GvnHeader) -> IpPacket:
    """Insert ``header`` between the IP header and the transport payload.

    The packet's protocol becomes 254 and its length fields grow by the
    header size; the IPv4 checksum is repaired on serialization.  Transport
    bytes are never touched.
    """
    if packet.protocol == GVN_PROTOCOL:
        raise AlreadyTagged("packet already carries a GVN header")
    if header.next_header != packet.protocol:
        raise NextHeaderMismatch(
            f"header preserves protocol {header.next_header}, packet carries {packet.protocol}"
        )
    new_payload = serialize_gvn(header) + packet.payload
    limit = IP_MAX_LEN - IPV4_HEADER_LEN if packet.version == 4 else IP_MAX_LEN
    if len(new_payload) > limit:
        raise OversizePacket(f"tagged payload of {len(new_payload)} exceeds IP limit")
    return packet.with_protocol_and_payload(GVN_PROTOCOL, new_payload)


def pop_gvn(packet: IpPacket) -> tuple[IpPacket, GvnHeader]:
    """Remove the GVN header, restoring the saved next-header protocol.

    Inverse of push_gvn: pop(push(p, h)) returns (p, h) byte-for-byte.
    Parse failures (truncation, reserved length) propagate.
    """
    if packet.protocol != GVN_PROTOCOL:
        raise NotTagged(f"packet protocol is {packet.protocol}, not {GVN_PROTOCOL}")
    header = parse_gvn(packet.payload)
    return strip_gvn(packet, header), header


def strip_gvn(packet: IpPacket, header: GvnHeader) -> IpPacket:
    """Remove the GVN header of a tagged packet whose parsed header is
    ``header``, restoring the saved next-header protocol.

    The splice of pop_gvn, for callers that already hold the header.
    """
    rest = packet.payload[header.total_length:]
    return packet.with_protocol_and_payload(header.next_header, rest)


class Classification(NamedTuple):
    """Outcome of looking at a packet's protocol field and first 8 bytes.

    ``header`` is set iff the packet is a well-formed GVN packet.  A packet
    carrying protocol 254 with an unparsable header degrades to legacy with
    ``diagnostic`` recording why, mirroring how a node without GVN support
    would treat it.  A named tuple, since every arrival makes one.
    """

    protocol: int
    header: Optional[GvnHeader] = None
    diagnostic: Optional[str] = None

    @property
    def is_gvn(self) -> bool:
        return self.header is not None


def classify(packet: IpPacket) -> Classification:
    # tuple.__new__ skips the named tuple's Python __new__; every arrival calls this.
    protocol = packet.protocol
    if protocol != GVN_PROTOCOL:
        return tuple.__new__(Classification, (protocol, None, None))
    try:
        header = parse_gvn(packet.payload)
    except MalformedHeader as exc:
        return tuple.__new__(Classification, (protocol, None, f"{type(exc).__name__}: {exc}"))
    return tuple.__new__(Classification, (protocol, header, None))


def replace_pl_data(packet: IpPacket, header: GvnHeader,
                    pl_data: bytes) -> tuple[IpPacket, GvnHeader]:
    """Swap the PL data of a tagged packet whose parsed header is ``header``.

    Used by logics that update their own state inside the header: the new
    header is spliced in front of the untouched transport bytes without a
    pop/push round trip.  Returns the new packet and its header.
    """
    new_header = GvnHeader(next_header=header.next_header, code=header.code,
                           flags=header.flags, pl_data=pl_data)
    payload = serialize_gvn(new_header) + packet.payload[header.total_length:]
    return packet.with_protocol_and_payload(GVN_PROTOCOL, payload), new_header

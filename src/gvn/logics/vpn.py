"""Virtual network separation: drop traffic whose network id is not admitted.

Data field layout (big-endian): [vnid:4][zero:4], padding the 32-bit id to
the 4-octet header granularity.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import AbstractSet

from ..codec import GvnHeader, push_gvn
from ..errors import PlDataError
from ..framework import DropReason, LocalAddresses, PlAction, ProcessingLogicBinding
from ..packet import IpPacket
from .codes import VPN_CODE

VNID_MAX = (1 << 32) - 1
_DATA = struct.Struct("!II")


@dataclass(frozen=True)
class VpnData:
    vnid: int

    def __post_init__(self) -> None:
        if not 0 <= self.vnid <= VNID_MAX:
            raise PlDataError(f"vnid {self.vnid} outside 32 bits")

    def to_bytes(self) -> bytes:
        return _DATA.pack(self.vnid, 0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VpnData":
        if len(data) != 8:
            raise PlDataError(f"vpn data must be 8 octets, got {len(data)}")
        vnid, _pad = _DATA.unpack(data)
        return cls(vnid=vnid)


def vpn_tag(packet: IpPacket, vnid: int, *, flags: int = 0) -> IpPacket:
    header = GvnHeader(next_header=packet.protocol, code=VPN_CODE,
                       flags=flags, pl_data=VpnData(vnid).to_bytes())
    return push_gvn(packet, header)


def vpn_check(header: GvnHeader, allowed: AbstractSet[int]) -> PlAction:
    """Forward by IP when the packet's vnid is admitted, drop otherwise."""
    try:
        data = VpnData.from_bytes(header.pl_data)
    except PlDataError as exc:
        return PlAction.drop(DropReason.MALFORMED_PL, note=str(exc))
    if data.vnid in allowed:
        return PlAction.forward_by_ip(note=f"vnid={data.vnid}")
    return PlAction.drop(DropReason.VPN_VIOLATION, note=f"vnid={data.vnid}")


def make_vpn_handler(allowed: AbstractSet[int]) -> ProcessingLogicBinding:
    def handler(header: GvnHeader, packet: IpPacket, local: LocalAddresses) -> PlAction:
        return vpn_check(header, allowed)

    return ProcessingLogicBinding(code=VPN_CODE, name="vpn-separation", handler=handler)

"""Service-function chaining by destination rewrite.

Instead of tunneling the packet to each function, the chain entry point
rewrites the IP destination to the first function's address and saves the
original destination inside the GVN header, together with a path id and a
count of remaining functions.  Legacy routers then carry the packet to each
function on ordinary IP forwarding; the last function restores the saved
destination and strips the header, leaving the original packet.

Data field layout (big-endian)::

    [version:1][spi:3][si:1][family:1][reserved:2][original_dst:4|16]

``spi`` identifies the chain, ``si`` counts the functions still to visit
(set to the chain length on entry, the chain exits when it would reach 0).
Both sizes follow common service-header practice.  Function processing is
pure steering here; payload-transforming functions are out of scope.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv6Address
from typing import Mapping

from ..codec import GVN_PROTOCOL, GvnHeader, push_gvn, replace_pl_data, strip_gvn
from ..errors import AlreadyTagged, EmptyChain, PlDataError
from ..framework import DropReason, NodeContext, PlAction, ProcessingLogicBinding
from ..packet import IPAddress, IpPacket
from .codes import NFV_CODE

PL_VERSION = 1
SPI_MAX = (1 << 24) - 1
SI_MAX = 0xFF


@dataclass(frozen=True)
class NfvChainData:
    """Chain state carried in the GVN header of a steered packet."""

    spi: int
    si: int
    original_dst: IPAddress
    pl_version: int = PL_VERSION

    def __post_init__(self) -> None:
        if not 0 <= self.spi <= SPI_MAX:
            raise PlDataError(f"spi {self.spi} outside 24 bits")
        if not 0 <= self.si <= SI_MAX:
            raise PlDataError(f"si {self.si} outside 8 bits")
        if self.pl_version != PL_VERSION:
            raise PlDataError(f"unsupported chain data version {self.pl_version}")

    def to_bytes(self) -> bytes:
        packed = self.original_dst.packed
        return struct.pack("!B3sBBH", self.pl_version,
                           self.spi.to_bytes(3, "big"), self.si,
                           self.original_dst.version, 0) + packed

    @classmethod
    def from_bytes(cls, data: bytes) -> "NfvChainData":
        if len(data) < 8:
            raise PlDataError(f"chain data needs >= 8 octets, got {len(data)}")
        version, spi3, si, family, _reserved = struct.unpack("!B3sBBH", data[:8])
        if family == 4:
            want, addr_type = 12, IPv4Address
        elif family == 6:
            want, addr_type = 24, IPv6Address
        else:
            raise PlDataError(f"unknown address family {family}")
        if len(data) != want:
            raise PlDataError(f"family {family} chain data must be {want} octets, got {len(data)}")
        return cls(spi=int.from_bytes(spi3, "big"), si=si,
                   original_dst=addr_type(data[8:want]), pl_version=version)


@dataclass(frozen=True)
class ChainHop:
    address: IPAddress
    node_id: str


@dataclass(frozen=True)
class ServiceChain:
    """Ordered list of function hops under one path id."""

    spi: int
    functions: tuple[ChainHop, ...]


def nfv_encap(packet: IpPacket, chain: ServiceChain, *,
              code: int | None = None) -> tuple[IpPacket, GvnHeader]:
    """Enter ``packet`` into ``chain``: tag it and steer it to hop one.

    The original destination is saved in the header; si starts at the chain
    length.  Returns the steered packet and the header pushed onto it.
    Raises EmptyChain / AlreadyTagged on precondition violations.
    """
    if not chain.functions:
        raise EmptyChain(f"chain {chain.spi} has no functions")
    if packet.protocol == GVN_PROTOCOL:
        raise AlreadyTagged("cannot enter a chain while already tagged")
    data = NfvChainData(spi=chain.spi, si=len(chain.functions), original_dst=packet.dst)
    header = GvnHeader(next_header=packet.protocol,
                       code=NFV_CODE if code is None else code,
                       pl_data=data.to_bytes())
    return push_gvn(packet, header).with_dst(chain.functions[0].address), header


def nfv_step(header: GvnHeader, packet: IpPacket, ctx: NodeContext,
             chain_table: Mapping[int, ServiceChain]) -> PlAction:
    """Process one function-node traversal of ``packet``, tagged with ``header``.

    With more functions remaining, decrement si and steer to the next hop.
    At the last function, strip the header and restore the saved original
    destination, byte-for-byte equal to the packet before chain entry.
    """
    try:
        data = NfvChainData.from_bytes(header.pl_data)
    except PlDataError as exc:
        return PlAction.drop(DropReason.MALFORMED_PL, note=str(exc))
    chain = chain_table.get(data.spi)
    if chain is None:
        return PlAction.drop(DropReason.UNKNOWN_SPI, note=f"spi={data.spi}")
    n = len(chain.functions)
    if not 1 <= data.si <= n:
        return PlAction.drop(DropReason.SI_MISMATCH, note=f"spi={data.spi} si={data.si} n={n}")
    position = n - data.si
    if chain.functions[position].address != packet.dst:
        return PlAction.drop(
            DropReason.SI_MISMATCH,
            note=f"spi={data.spi} si={data.si} expected dst "
                 f"{chain.functions[position].address}, packet has {packet.dst}")
    if ctx.local_addresses and not ctx.local_addresses.has_dst(packet):
        return PlAction.drop(DropReason.SI_MISMATCH,
                             note=f"step executed off-path at {ctx.node_id}")
    if data.si > 1:
        next_hop = chain.functions[position + 1]
        new_data = NfvChainData(data.spi, data.si - 1, data.original_dst, data.pl_version)
        steered, new_header = replace_pl_data(packet, header, new_data.to_bytes())
        steered = steered.with_dst(next_hop.address)
        return PlAction.rewrite_and_forward(
            steered, new_header,
            note=f"spi={data.spi} si={new_data.si} dst={next_hop.address}")
    restored = strip_gvn(packet, header).with_dst(data.original_dst)
    return PlAction.rewrite_and_forward(
        restored, None, note=f"spi={data.spi} si=0 restored dst={data.original_dst}")


def make_nfv_handler(chain_table: Mapping[int, ServiceChain]) -> ProcessingLogicBinding:
    """Binding that steps the chain at the addressed function node and
    steers by IP everywhere else."""

    def handler(header: GvnHeader, packet: IpPacket, ctx: NodeContext) -> PlAction:
        if ctx.local_addresses.has_dst(packet):
            return nfv_step(header, packet, ctx, chain_table)
        return PlAction.forward_by_ip()

    return ProcessingLogicBinding(code=NFV_CODE, name="nfv-chain", handler=handler)

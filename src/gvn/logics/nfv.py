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
from functools import partial
from ipaddress import IPv4Address, IPv6Address
from typing import Mapping

from ..codec import GVN_PROTOCOL, MIN_HEADER_LEN, GvnHeader, push_gvn
from ..errors import EmptyChain, InvalidPacket, PlDataError
from ..framework import (
    _FORWARD_BY_IP,
    _KIND_REWRITE,
    DropReason,
    LocalAddresses,
    PlAction,
    ProcessingLogicBinding,
)
from ..packet import IPAddress, IpPacket, _address, _build
from .codes import NFV_CODE

PL_VERSION = 1
SPI_MAX = (1 << 24) - 1
SI_MAX = 0xFF
_HEAD = struct.Struct("!B3sBBH")
_FAMILIES = {4: (12, IPv4Address), 6: (24, IPv6Address)}  # family: data length, address type


@dataclass(frozen=True)
class NfvChainData:
    """Chain state carried in the GVN header of a steered packet."""

    spi: int
    si: int
    original_dst: IPAddress

    def __post_init__(self) -> None:
        if not 0 <= self.spi <= SPI_MAX:
            raise PlDataError(f"spi {self.spi} outside 24 bits")
        if not 0 <= self.si <= SI_MAX:
            raise PlDataError(f"si {self.si} outside 8 bits")

    def to_bytes(self) -> bytes:
        return _HEAD.pack(PL_VERSION, self.spi.to_bytes(3, "big"), self.si,
                          self.original_dst.version, 0) + self.original_dst.packed

    @classmethod
    def from_bytes(cls, data: bytes) -> "NfvChainData":
        spi3, si, _family, addr_type = _unpack(data)
        return cls(spi=int.from_bytes(spi3, "big"), si=si, original_dst=addr_type(data[8:]))


def _unpack(data: bytes) -> tuple:
    """Chain data's spi octets, si, family and address type, or PlDataError."""
    if len(data) < 8:
        raise PlDataError(f"chain data needs >= 8 octets, got {len(data)}")
    version, spi3, si, family, _reserved = _HEAD.unpack_from(data)
    if family not in _FAMILIES:
        raise PlDataError(f"unknown address family {family}")
    want, addr_type = _FAMILIES[family]
    if len(data) != want:
        raise PlDataError(f"family {family} chain data must be {want} octets, got {len(data)}")
    if version != PL_VERSION:
        raise PlDataError(f"unsupported chain data version {version}")
    return spi3, si, family, addr_type


@dataclass(frozen=True)
class ServiceChain:
    """The addresses of a chain's functions, in visiting order, under one
    path id."""

    spi: int
    functions: tuple[IPAddress, ...]

    def __post_init__(self) -> None:
        # What nfv_encap could not encode: spi is 3 octets and si, the count
        # of functions to visit, is one.
        n = len(self.functions)
        if not 0 <= self.spi <= SPI_MAX:
            raise PlDataError(f"spi {self.spi} outside 24 bits")
        if not n:
            raise EmptyChain(f"chain {self.spi} has no functions")
        if n > SI_MAX:
            raise PlDataError(f"chain {self.spi} has {n} functions, more than {SI_MAX}")
        # The note of a packet steered to each function, whose address is rendered once.
        object.__setattr__(self, "_steers", tuple(
            f"spi={self.spi} si={n - i} dst={address}" for i, address in enumerate(self.functions)))

    def tag(self, packet: IpPacket) -> tuple[IpPacket, GvnHeader, str]:
        """Enter untagged ``packet`` into this chain: the steered packet, the
        header pushed onto it and a note describing the entry."""
        tagged, header = nfv_encap(packet, self)
        return tagged, header, "encap " + self._steers[0]


def nfv_encap(packet: IpPacket, chain: ServiceChain) -> tuple[IpPacket, GvnHeader]:
    """Enter ``packet`` into ``chain``: tag it and steer it to hop one.

    The original destination is saved in the header; si starts at the chain
    length.  Returns the steered packet and the header pushed onto it.
    Raises AlreadyTagged if ``packet`` is tagged.
    """
    data = NfvChainData(spi=chain.spi, si=len(chain.functions), original_dst=packet.dst)
    header = GvnHeader(next_header=packet.protocol, code=NFV_CODE, pl_data=data.to_bytes())
    return push_gvn(packet, header).with_dst(chain.functions[0]), header


def nfv_step(header: GvnHeader, packet: IpPacket,
             chain_table: Mapping[int, ServiceChain]) -> PlAction:
    """Process one function-node traversal of ``packet``, tagged with ``header``,
    at the function node it is addressed to.

    With more functions remaining, decrement si and steer to the next hop.
    At the last function, strip the header and restore the saved original
    destination, byte-for-byte equal to the packet before chain entry.  A
    next function or saved destination of the other IP family is a drop.
    """
    pl_data = header.pl_data
    try:
        spi3, si, family, addr_type = _unpack(pl_data)
    except PlDataError as exc:
        return PlAction.drop(DropReason.MALFORMED_PL, note=str(exc))
    spi = int.from_bytes(spi3, "big")
    chain = chain_table.get(spi)
    if chain is None:
        return PlAction.drop(DropReason.UNKNOWN_SPI, note=f"spi={spi}")
    functions = chain.functions
    n = len(functions)
    if not 1 <= si <= n:
        return PlAction.drop(DropReason.SI_MISMATCH, note=f"spi={spi} si={si} n={n}")
    position = n - si
    expected = functions[position]
    # A packet on its path holds the very address object it was steered to.
    if expected is not packet.dst and expected != packet.dst:
        return PlAction.drop(DropReason.SI_MISMATCH, note=f"spi={spi} si={si} expected dst "
                                                          f"{expected}, packet has {packet.dst}")
    payload = packet.payload
    rest = payload[MIN_HEADER_LEN + len(pl_data):]  # the transport bytes
    if si > 1:
        dst = functions[position + 1]
        # si counts one down and the reserved octets are zeroed; the rest is
        # copied, and so are the header's fixed octets: its length holds.
        pl_data = _HEAD.pack(PL_VERSION, spi3, si - 1, family, 0) + pl_data[8:]
        new_header = _build(GvnHeader, (header.next_header, header.code, header.flags, pl_data))
        protocol, payload = GVN_PROTOCOL, payload[:MIN_HEADER_LEN] + pl_data + rest
        note = chain._steers[position + 1]
    else:
        dst = _address(addr_type, int.from_bytes(pl_data[8:], "big"))
        new_header, protocol, payload = None, header.next_header, rest
        note = f"spi={spi} si=0 restored dst={dst}"
    try:
        steered = packet._steered(dst, protocol, payload)
    except InvalidPacket as exc:  # steering to the other IP family
        return PlAction.drop(DropReason.FAMILY_MISMATCH, note=str(exc))
    return _build(PlAction, (_KIND_REWRITE, None, None, steered, new_header, note))


def _handler(chain_table: Mapping[int, ServiceChain], header: GvnHeader, packet: IpPacket,
             local: LocalAddresses) -> PlAction:
    if local.has_dst(packet):
        return nfv_step(header, packet, chain_table)
    return _FORWARD_BY_IP


def make_nfv_handler(chain_table: Mapping[int, ServiceChain]) -> ProcessingLogicBinding:
    """Binding that steps the chain at the addressed function node and
    steers by IP everywhere else."""
    return ProcessingLogicBinding(code=NFV_CODE, name="nfv-chain",
                                  handler=partial(_handler, chain_table))

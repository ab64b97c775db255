"""Code-keyed processing-logic registry and the receive-side dispatch rules.

A processing logic (PL) is a handler bound to one 40-bit GVN code.  Dispatch
at a GVN-capable node covers the full receive matrix:

* untagged, destination elsewhere     -> forward by the IP routing table
* untagged, destination local         -> deliver, or drop an unknown transport
* tagged, code unregistered           -> drop if the header requests it,
                                         otherwise behave exactly like a
                                         node with no GVN support at all
* tagged, code registered             -> whatever the handler decides

The header is parsed once per arrival and handed to the handler, which
reads its PL data from that header rather than from ``packet.payload``; a
handler that rewrites the packet returns the rewritten packet's header with
it.  A handler's third argument is the node's own addresses, compiled once
when the topology is loaded.  Handlers are deterministic: the same (header,
packet, node) must map to the same action.

Whether a packet is addressed to the node is decided in one place,
``LocalAddresses.has_dst``, for every caller: the plain IP treatment here,
the simulator's forwarding and the chaining logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, Optional

from .codec import GvnHeader
from .errors import DuplicateCode, ReservedCode
from .packet import KNOWN_TRANSPORTS, IPAddress, IpPacket

# Code 0 is the unset sentinel; it round-trips through the codec but can
# never be bound to a handler.
RESERVED_CODE = 0


class ActionKind(Enum):
    FORWARD_BY_IP = "ForwardByIp"
    FORWARD_TO = "ForwardTo"
    DELIVER_LOCAL = "DeliverLocal"
    DROP = "Drop"
    REWRITE_AND_FORWARD = "RewriteAndForward"


class DropReason(Enum):
    UNKNOWN_TRANSPORT = "UnknownTransport"
    UNKNOWN_CODE = "UnknownCode"
    TTL_EXPIRED = "TtlExpired"
    NO_ROUTE = "NoRoute"
    VPN_VIOLATION = "VpnViolation"
    UNKNOWN_SPI = "UnknownSpi"
    SI_MISMATCH = "SiMismatch"
    MALFORMED_PL = "MalformedPl"
    POLICY = "Policy"
    OVERSIZE = "Oversize"  # a push would exceed the IP length limit
    FAMILY_MISMATCH = "FamilyMismatch"  # a chain steers to the other IP family


@dataclass(frozen=True)
class PlAction:
    """One decision about a packet's fate at a node.

    ``next_hop`` names a neighbor for FORWARD_TO; ``packet`` carries the
    rewritten datagram for REWRITE_AND_FORWARD, which is always routed by
    IP, and ``header`` the GVN header that datagram carries, None when it
    is untagged.  ``note`` is free-form text copied into the trace for
    observability.  ``forward_by_ip()`` and ``deliver()`` without a note
    return one shared instance each, which its being frozen makes safe.
    """

    kind: ActionKind
    next_hop: Optional[str] = None
    reason: Optional[DropReason] = None
    packet: Optional[IpPacket] = None
    header: Optional[GvnHeader] = None
    note: Optional[str] = None

    @staticmethod
    def forward_by_ip(note: str | None = None) -> "PlAction":
        if note is None:
            return _FORWARD_BY_IP
        return PlAction(ActionKind.FORWARD_BY_IP, note=note)

    @staticmethod
    def forward_to(next_hop: str, note: str | None = None) -> "PlAction":
        return PlAction(ActionKind.FORWARD_TO, next_hop=next_hop, note=note)

    @staticmethod
    def deliver(note: str | None = None) -> "PlAction":
        if note is None:
            return _DELIVER
        return PlAction(ActionKind.DELIVER_LOCAL, note=note)

    @staticmethod
    def drop(reason: DropReason, note: str | None = None) -> "PlAction":
        return PlAction(ActionKind.DROP, reason=reason, note=note)

    @staticmethod
    def rewrite_and_forward(packet: IpPacket, header: Optional[GvnHeader],
                            note: str | None = None) -> "PlAction":
        return PlAction(ActionKind.REWRITE_AND_FORWARD, packet=packet, header=header, note=note)


_FORWARD_BY_IP = PlAction(ActionKind.FORWARD_BY_IP)
_DELIVER = PlAction(ActionKind.DELIVER_LOCAL)

PlHandler = Callable[[GvnHeader, IpPacket, "LocalAddresses"], PlAction]


@dataclass(frozen=True)
class ProcessingLogicBinding:
    code: int
    name: str
    handler: PlHandler


class LocalAddresses(frozenset):
    """A node's own addresses: a frozenset of address objects that also
    holds them as integers, one set per IP family.  ``has_dst`` hashes an
    integer, not an address (``IPv4Address.__hash__`` is Python code), and
    the split keeps ``10.0.0.1`` and ``::a00:1``, one integer, apart."""

    __slots__ = ("_v4", "_v6")

    def __init__(self, addresses: Iterable[IPAddress] = ()) -> None:
        # frozenset.__new__ has stored ``addresses`` already.
        self._v4 = frozenset(int(a) for a in self if a.version == 4)
        self._v6 = frozenset(int(a) for a in self if a.version == 6)

    def has_dst(self, packet: IpPacket) -> bool:
        """Whether ``packet`` is addressed to one of these addresses."""
        return int(packet.dst) in (self._v4 if packet.version == 4 else self._v6)


class PlRegistry:
    """Per-node mapping of GVN codes to processing logics.

    Populated while a topology is built and treated as read-only afterwards,
    so concurrent dispatch needs no locking.
    """

    def __init__(self) -> None:
        self._bindings: Dict[int, ProcessingLogicBinding] = {}

    def register(self, binding: ProcessingLogicBinding) -> "PlRegistry":
        if binding.code == RESERVED_CODE:
            raise ReservedCode("code 0 is reserved and cannot be bound")
        if binding.code in self._bindings:
            raise DuplicateCode(f"code {binding.code:#012x} already bound "
                                f"to {self._bindings[binding.code].name!r}")
        self._bindings[binding.code] = binding
        return self

    def lookup(self, code: int) -> Optional[ProcessingLogicBinding]:
        return self._bindings.get(code)

    def dispatch(self, header: Optional[GvnHeader], packet: IpPacket,
                 local: LocalAddresses) -> PlAction:
        """Decide a packet's fate at a GVN-capable node.

        ``header`` is the packet's parsed GVN header as ``classify`` found
        it: None for an untagged packet or a malformed tag.  ``local`` is
        the node's own addresses.
        """
        if header is not None:
            binding = self.lookup(header.code)
            if binding is not None:
                return binding.handler(header, packet, local)
            if header.drop_on_unknown:
                return PlAction.drop(DropReason.UNKNOWN_CODE,
                                     note=f"code {header.code:#012x} not registered")
            # Unknown code, no drop hint: fall through to plain IP handling,
            # where protocol 254 reads as an unknown transport.
        return legacy_action(packet, local)


def legacy_action(packet: IpPacket, local: LocalAddresses) -> PlAction:
    """Plain IP treatment of a packet: the receive behavior of a node with
    no GVN support at all, and of a capable node for what no logic takes.

    So an empty registry with clear flags is observationally identical to
    no GVN support.  Parse diagnostics for malformed tagged packets are
    surfaced on ingress trace records, never here, to keep that equivalence
    exact.
    """
    if not local.has_dst(packet):
        return PlAction.forward_by_ip()
    return receive_action(packet)


def receive_action(packet: IpPacket) -> PlAction:
    """What an ordinary stack does with a packet addressed to it: deliver a
    known transport, drop anything else."""
    if packet.protocol in KNOWN_TRANSPORTS:
        return PlAction.deliver()
    return PlAction.drop(DropReason.UNKNOWN_TRANSPORT,
                         note=f"protocol {packet.protocol} has no handler")

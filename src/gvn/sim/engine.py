"""Deterministic discrete-event execution over a topology.

Links have unit delay and per-direction FIFO order; simultaneous events are
ordered by (time, lane, enqueue sequence), so a run is a pure function of
(topology, injections) and two executions yield identical traces.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..codec import GVN_PROTOCOL, GvnHeader, classify, strip_gvn
from ..errors import InvalidPacket, OversizePacket
from ..framework import ActionKind, DropReason, PlAction, receive_action
from ..packet import IPAddress, IpPacket
from .topology import FlowRule, Injection, Node, Tag, Topology
from .trace import TraceRecord

# Lane name for locally injected packets; sorts ahead of link lanes.
_INJECT_LANE = "!inject"


@dataclass
class RunResult:
    records: List[TraceRecord]
    steps: int
    step_limit_exceeded: bool
    injected: int
    delivered: int
    dropped: Counter = field(default_factory=Counter)
    in_flight: int = 0
    delivered_packets: List[Tuple[str, IpPacket]] = field(default_factory=list)


def flow_match(rules: Tuple[FlowRule, ...], header: Optional[GvnHeader],
               packet: IpPacket) -> Optional[FlowRule]:
    """Highest-priority rule whose every present field matches ``packet``,
    whose parsed GVN header is ``header`` (None when untagged or malformed);
    insertion order breaks priority ties."""
    best: Optional[FlowRule] = None
    for rule in rules:
        if rule.match_code is not None:
            if header is None or header.code != rule.match_code:
                continue
        if rule.match_pl_prefix is not None:
            if header is None:
                continue
            offset, expected = rule.match_pl_prefix
            if header.pl_data[offset:offset + len(expected)] != expected:
                continue
        if rule.match_dst_prefix is not None and rule.match_dst_prefix.lookup(packet.dst) is None:
            continue
        if best is None or rule.priority > best.priority:
            best = rule
    return best


def edge_ingress(node: Node, packet: IpPacket) -> Optional[Tag]:
    """The tag of the first ingress rule of the edge node's policy that
    matches ``packet``, None if none does."""
    for rule in node.edge_policy.ingress:
        if rule.matches(packet):
            return rule.tag
    return None


class _Sim:
    """One run.  Every step hands on the packet together with ``header``,
    the GVN header it carries (None when untagged or malformed).  It is
    classified once when the packet arrives and then replaced by whatever a
    step pushes, rewrites or pops, so no later step classifies it again."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.records: List[TraceRecord] = []
        self.dropped: Counter = Counter()
        self.delivered: List[Tuple[str, IpPacket]] = []
        self._eseq = 0
        self._heap: List[Tuple[int, str, int, str, IpPacket]] = []
        # Each address object is rendered once per run; records share the
        # text.  The memo is keyed by id(), which skips IPv4Address.__hash__
        # (Python code); the objects are kept alive in _rendered so that no
        # id is reused within the run.
        self._address_text: Dict[int, str] = {}
        self._rendered: List[IPAddress] = []

    # -- bookkeeping -----------------------------------------------------

    def _record(self, time: int, node: str, event: str, packet: IpPacket,
                header: Optional[GvnHeader], diag: Optional[str] = None) -> None:
        # tuple.__new__ skips the named tuple's Python __new__; seq is the index.
        text = self._address_text
        records = self.records
        records.append(tuple.__new__(TraceRecord, (
            len(records), time, node, event,
            text.get(id(packet.src)) or self._render(packet.src),
            text.get(id(packet.dst)) or self._render(packet.dst),
            packet.protocol, None if header is None else header.code, packet.ttl, diag)))

    def _render(self, address: IPAddress) -> str:
        self._rendered.append(address)
        text = self._address_text[id(address)] = str(address)
        return text

    def _schedule(self, time: int, lane: str, node_id: str, packet: IpPacket) -> None:
        heapq.heappush(self._heap, (time, lane, self._eseq, node_id, packet))
        self._eseq += 1

    # -- per-node processing ----------------------------------------------

    def arrive(self, time: int, node: Node, packet: IpPacket) -> None:
        """Process one arrival of ``packet`` at ``node``."""
        _protocol, header, diagnostic = classify(packet)
        self._record(time, node.id, "Ingress", packet, header, diagnostic)
        if node.legacy:
            # The plain IP decision, taken where the packet is routed.
            self._forward_by_ip(time, node, packet, header)
            return
        # Only untagged packets are tagged: a malformed tag is still a tag.
        if node.edge_policy is not None and packet.protocol != GVN_PROTOCOL:
            tag = edge_ingress(node, packet)
            if tag is not None:
                pushed = self._push(time, node, packet, header, tag, "")
                if pushed is None:
                    return
                packet, header = pushed
        rule = flow_match(node.flow_rules, header, packet)
        if rule is None:
            if header is None:
                # What dispatch does with an untagged packet.
                self._forward_by_ip(time, node, packet, header)
                return
            action = node.registry.dispatch(header, packet, node.addresses)
        else:
            action = rule.action
            if rule.push is not None and packet.protocol != GVN_PROTOCOL:
                pushed = self._push(time, node, packet, header, rule.push, "flow rule ")
                if pushed is None:
                    return
                packet, header = pushed
            elif rule.pop and header is not None:
                packet = strip_gvn(packet, header)
                header = None
                self._record(time, node.id, "Pop", packet, header, "flow rule")
        self._resolve(time, node, packet, header, action)

    def _push(self, time: int, node: Node, packet: IpPacket, header: Optional[GvnHeader],
              tag: Tag, prefix: str) -> Optional[Tuple[IpPacket, GvnHeader]]:
        """Tag ``packet`` and record the Push, its note led by ``prefix``.
        Returns the tagged packet and its header, or None once the packet
        is dropped because the tag does not fit it."""
        try:
            tagged, pushed, note = tag.tag(packet)
        except OversizePacket as exc:
            self._drop(time, node, packet, header, DropReason.OVERSIZE, str(exc))
            return None
        except InvalidPacket as exc:  # a chain steering to the other family
            self._drop(time, node, packet, header, DropReason.FAMILY_MISMATCH, str(exc))
            return None
        self._record(time, node.id, "Push", tagged, pushed, prefix + note)
        return tagged, pushed

    # -- action resolution --------------------------------------------------

    def _resolve(self, time: int, node: Node, packet: IpPacket,
                 header: Optional[GvnHeader], action: PlAction) -> None:
        if action.kind is ActionKind.DROP:
            self._drop(time, node, packet, header, action.reason, action.note)
        elif action.kind is ActionKind.DELIVER_LOCAL:
            self._deliver(time, node, packet, header, action.note)
        elif action.kind is ActionKind.REWRITE_AND_FORWARD:
            self._record(time, node.id, "Rewrite", action.packet, action.header, action.note)
            self._forward_by_ip(time, node, action.packet, action.header)
        elif action.kind is ActionKind.FORWARD_TO:
            self._forward_to(time, node, packet, header, action.next_hop)
        elif action.kind is ActionKind.FORWARD_BY_IP:
            self._forward_by_ip(time, node, packet, header)

    def _drop(self, time: int, node: Node, packet: IpPacket, header: Optional[GvnHeader],
              reason: DropReason, note: Optional[str] = None) -> None:
        self.dropped[reason.value] += 1
        self._record(time, node.id, f"Drop({reason.value})", packet, header, note)

    def _deliver(self, time: int, node: Node, packet: IpPacket,
                 header: Optional[GvnHeader], note: Optional[str] = None) -> None:
        self.delivered.append((node.id, packet))
        self._record(time, node.id, "Deliver", packet, header, note)

    def _forward_by_ip(self, time: int, node: Node, packet: IpPacket,
                       header: Optional[GvnHeader]) -> None:
        if node.addresses.has_dst(packet):
            # A GVN-capable stack consumes its own well-formed tagged
            # packets; anything else follows ordinary transport handling.
            action = (PlAction.deliver() if header is not None and not node.legacy
                      else receive_action(packet))
            self._resolve(time, node, packet, header, action)
            return
        next_hop = node.routing.lookup(packet.dst)
        if next_hop is None:
            self._drop(time, node, packet, header, DropReason.NO_ROUTE,
                       note=f"no route to {packet.dst}")
            return
        self._emit(time, node, next_hop, packet, header)

    def _forward_to(self, time: int, node: Node, packet: IpPacket,
                    header: Optional[GvnHeader], next_hop: str) -> None:
        if next_hop not in node.links:
            self._drop(time, node, packet, header, DropReason.NO_ROUTE,
                       note=f"no link to {next_hop}")
            return
        self._emit(time, node, next_hop, packet, header)

    def _emit(self, time: int, node: Node, next_hop: str, packet: IpPacket,
              header: Optional[GvnHeader]) -> None:
        if node.decrements_ttl:
            if packet.ttl <= 1:
                self._drop(time, node, packet, header, DropReason.TTL_EXPIRED)
                return
            packet = packet.with_ttl(packet.ttl - 1)
        if (header is not None and node.edge_policy is not None
                and node.edge_policy.should_pop(packet.dst)):
            packet = strip_gvn(packet, header)
            self._record(time, node.id, "Pop", packet, None, f"code={header.code:#012x}")
            header = None
        lane, note = node.links[next_hop]
        self._record(time, node.id, "Forward", packet, header, note)
        self._schedule(time + 1, lane, next_hop, packet)

    # -- main loop ----------------------------------------------------------

    def run(self, injections: List[Injection], max_steps: int) -> RunResult:
        for injection in injections:
            self._schedule(injection.time, _INJECT_LANE, injection.node, injection.packet)
        exceeded = False
        last_time = -1
        while self._heap:
            time, _lane, _eseq, node_id, packet = self._heap[0]
            if time >= max_steps:
                exceeded = True
                break
            heapq.heappop(self._heap)
            last_time = time
            self.arrive(time, self.topology.nodes[node_id], packet)
        return RunResult(records=self.records,
                         steps=max_steps if exceeded else last_time + 1,
                         step_limit_exceeded=exceeded, injected=len(injections),
                         delivered=len(self.delivered), dropped=self.dropped,
                         in_flight=len(self._heap), delivered_packets=self.delivered)


def run(topology: Topology, injections: List[Injection], max_steps: int) -> RunResult:
    """Execute injections over the topology until quiescence or the step
    limit; returns the complete trace and accounting."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    return _Sim(topology).run(injections, max_steps)


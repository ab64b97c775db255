"""Deterministic discrete-event execution over a topology.

Links have unit delay and per-direction FIFO order, so a step's arrivals
are its injections and what the step before sent, run in (lane, enqueue
sequence) order; a run is a pure function of (topology, injections) and two
executions yield identical traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import List, Optional, Tuple

from ..codec import GVN_PROTOCOL, GvnHeader, classify, strip_gvn
from ..errors import InvalidPacket, OversizePacket
from ..framework import (
    _FORWARD_BY_IP,
    _KIND_DELIVER_LOCAL,
    _KIND_DROP,
    _KIND_FORWARD_BY_IP,
    _KIND_FORWARD_TO,
    _KIND_REWRITE,
    ActionKind,
    DropReason,
    PlAction,
    receive_action,
)
from ..packet import IpPacket
from .topology import FlowRule, Injection, Node, Tag, Topology, _show
from .trace import TraceRecords

# Lane name for locally injected packets; a link's lane is "node>neighbor".
_INJECT_LANE = "!inject"

# The trace text of a packet's source and destination.
_Text = Tuple[str, str]

# What a forward sends, to arrive in the next step: (lane, next Node, packet, header, text).
_Sent = Tuple[str, Node, IpPacket, Optional[GvnHeader], _Text]
_BY_LANE, _BY_ENTRY = itemgetter(0), itemgetter(0, 1)  # sort keys: (lane, ...); (time, index, ...)

# A node's forwarding decision for a destination it owns, or has no link
# toward; any other is ``_Sim._hop``'s (next Node, lane, note, pops) tuple.
_LOCAL, _NO_ROUTE = "local", "no route"

# Bound once, as gvn.framework binds the action kinds (a read off the enum class is slow).
_DROP_NO_ROUTE, _DROP_TTL_EXPIRED = DropReason.NO_ROUTE, DropReason.TTL_EXPIRED
_DROP_OVERSIZE, _DROP_FAMILY_MISMATCH = DropReason.OVERSIZE, DropReason.FAMILY_MISMATCH


@dataclass
class RunResult:
    records: TraceRecords
    steps: int
    step_limit_exceeded: bool
    injected: int
    delivered: int
    dropped: Counter = field(default_factory=Counter)
    in_flight: int = 0
    delivered_packets: List[Tuple[str, IpPacket]] = field(default_factory=list)


def flow_match(rules: Tuple[FlowRule, ...], header: Optional[GvnHeader],
               packet: IpPacket) -> Optional[FlowRule]:
    """Highest-priority rule that matches ``packet``, whose parsed GVN
    header is ``header`` (None when untagged or malformed); insertion order
    breaks priority ties."""
    best: Optional[FlowRule] = None
    for rule in rules:
        if (best is None or rule.priority > best.priority) and rule.matches(packet, header):
            best = rule
    return best


def edge_ingress(node: Node, packet: IpPacket) -> Optional[Tag]:
    """What the first of the edge node's ingress rules that matches
    untagged ``packet`` pushes, None if none matches."""
    for rule in node.ingress:
        if rule.matches(packet):
            return rule.push
    return None


def _refusal(node: Node, header: Optional[GvnHeader], action: object) -> Exception:
    """Why ``_Sim._resolve`` refuses ``action``, a handler's result at ``node``."""
    kind, note, error = getattr(action, "kind", None), getattr(action, "note", None), TypeError
    if not isinstance(action, PlAction):
        what = f"{action!r} is not a PlAction"
    elif kind is ActionKind.FORWARD_TO:
        what = f"next hop {action.next_hop!r} is not a node id"
    elif not isinstance(kind, ActionKind):
        what = f"action of unknown kind {kind!r}"
    elif kind is ActionKind.DROP and not isinstance(action.reason, DropReason):
        what = f"drop reason {action.reason!r} is not a DropReason"
    elif kind is ActionKind.REWRITE_AND_FORWARD and not isinstance(action.packet, IpPacket):
        what = f"rewritten packet {action.packet!r} is not an IpPacket"
    elif kind is ActionKind.REWRITE_AND_FORWARD and not (
            action.header is None or isinstance(action.header, GvnHeader)):
        what = f"rewritten header {action.header!r} is not a GvnHeader"
    elif not isinstance(note, str):
        what = f"note {note!r} is not a str"
    else:
        error, what = ValueError, f"note {note!r} is not printable"
    code = "none" if header is None else f"{header.code:#012x}"
    return error(f"node {node.id!r}, code {code}: {what}")


class _Sim:
    """One run.  Every step hands on the packet with ``header``, the GVN
    header it carries (None when untagged or malformed), and ``text``, the
    trace text of its addresses.  Both are made once, when the packet enters
    the run, and then carried from step to step.  Only an edge push or pop,
    a flow rule or a logic's rewrite replaces the header, and only a push or
    a rewrite may change the addresses.  An address's text is what the
    topology's ``address_text.text`` gives for it: the text loaded for its
    value, or, for a value no document text named, its rendering.  A
    malformed tag, which carries no header, is classified again on each
    arrival, to recover its Ingress diagnostic.  Routing relies on that text:
    each node's ``forwarding`` cache is keyed by ``text[1]``.  An IPv4 text
    has no ``:`` and an IPv6 text always has one, so the two families of
    one integer never share an entry.  Nodes are immutable, so what a cache
    holds stays right for every later run on the same topology.  An arrival
    has one exit.  Its action starts as the plain IP decision, which a node
    whose ``registry`` is None (not GVN-capable) keeps for every packet, and
    only a flow rule or dispatch replaces it; the arrival ends in
    ``_forward`` while it is that decision and in ``_resolve`` otherwise,
    and returns their ``_Sent``, or None.  One helper, ``_hop``, builds the
    link of every forward.  ``records`` stores each record as the plain
    tuple of its fields, which a read of the list hands out as a
    ``TraceRecord``; every hop's Ingress and Forward records are appended
    in place, as ``_record`` appends the others."""

    def __init__(self, topology: Topology) -> None:
        self.nodes = topology.nodes
        self.records = TraceRecords()
        self.dropped: Counter = dict.__new__(Counter)  # empty, without Counter's Python __init__
        self.delivered: List[Tuple[str, IpPacket]] = []
        self._text_of = topology.address_text.text

    # -- bookkeeping -----------------------------------------------------

    def _record(self, time: int, node: str, event: str, packet: IpPacket,
                header: Optional[GvnHeader], text: _Text, diag: Optional[str] = None) -> None:
        src, dst = text
        records = self.records  # seq is the index
        records.append((len(records), time, node, event, src, dst,
                        packet.protocol, None if header is None else header.code, packet.ttl, diag))

    def _retext(self, before: IpPacket, after: IpPacket, text: _Text) -> _Text:
        """The trace text of ``after``'s addresses, where ``text`` is that of
        ``before``'s: an address object both share keeps its text."""
        src, dst = after.src, after.dst
        if src is before.src and dst is before.dst:
            return text
        return (text[0] if src is before.src else self._text_of(src),
                text[1] if dst is before.dst else self._text_of(dst))

    # -- per-node processing ----------------------------------------------

    def arrive(self, time: int, node: Node, packet: IpPacket,
               header: Optional[GvnHeader], text: _Text) -> Optional[_Sent]:
        """Process one arrival of ``packet``, which carries ``header`` and
        ``text``, at ``node``; returns what it sends on, if anything."""
        diagnostic = None
        if header is None and packet.protocol == GVN_PROTOCOL:
            diagnostic = classify(packet).diagnostic
        records = self.records  # the Ingress record, as _record builds it
        records.append((len(records), time, node.id, "Ingress", text[0], text[1],
                        packet.protocol, None if header is None else header.code, packet.ttl,
                        diagnostic))
        action = _FORWARD_BY_IP  # what dispatch gives an untagged packet
        if node.registry is not None:
            # Only untagged packets are tagged: a malformed tag is still a tag.
            if node.ingress and packet.protocol != GVN_PROTOCOL:
                tag = edge_ingress(node, packet)
                if tag is not None:
                    pushed = self._push(time, node, packet, header, text, tag, "")
                    if pushed is None:
                        return
                    packet, header, text = pushed
            rule = flow_match(node.flow_rules, header, packet) if node.flow_rules else None
            if rule is not None:
                action = rule.action
                if rule.push is not None and packet.protocol != GVN_PROTOCOL:
                    pushed = self._push(time, node, packet, header, text, rule.push, "flow rule ")
                    if pushed is None:
                        return
                    packet, header, text = pushed
                elif rule.pop and header is not None:
                    packet = strip_gvn(packet, header)
                    header = None
                    self._record(time, node.id, "Pop", packet, header, text, "flow rule")
            elif header is not None:
                action = node.registry.dispatch(header, packet, node.addresses)
        if action is _FORWARD_BY_IP:  # also every transit of a logic's code
            return self._forward(time, node, packet, header, text)
        return self._resolve(time, node, packet, header, text, action)

    def _push(self, time: int, node: Node, packet: IpPacket, header: Optional[GvnHeader],
              text: _Text, tag: Tag, prefix: str) -> Optional[Tuple[IpPacket, GvnHeader, _Text]]:
        """Tag ``packet`` and record the Push, its note led by ``prefix``.
        Returns the tagged packet, its header and its text (a chain's encap
        changes ``dst``), or None once it is dropped for a tag that does not fit."""
        try:
            tagged, pushed, note = tag.tag(packet)
        except OversizePacket as exc:
            self._drop(time, node, packet, header, text, _DROP_OVERSIZE, str(exc))
            return None
        except InvalidPacket as exc:  # a chain steering to the other family
            self._drop(time, node, packet, header, text, _DROP_FAMILY_MISMATCH, str(exc))
            return None
        text = self._retext(packet, tagged, text)
        self._record(time, node.id, "Push", tagged, pushed, text, prefix + note)
        return tagged, pushed, text

    # -- action resolution --------------------------------------------------

    def _resolve(self, time: int, node: Node, packet: IpPacket,
                 header: Optional[GvnHeader], text: _Text, action: PlAction) -> Optional[_Sent]:
        kind = getattr(action, "kind", None)  # a handler may return anything
        # Commonest kind first; a traced note is None or printable (no tab or newline).
        if kind is _KIND_DELIVER_LOCAL and (
                (note := action.note) is None or isinstance(note, str) and note.isprintable()):
            return self._deliver(time, node, packet, header, text, note)
        if (kind is _KIND_REWRITE and isinstance(action.packet, IpPacket)
              and (action.header is None or isinstance(action.header, GvnHeader))
              and ((note := action.note) is None or isinstance(note, str) and note.isprintable())):
            text = self._retext(packet, action.packet, text)  # a handler may change either address
            self._record(time, node.id, "Rewrite", action.packet, action.header, text, note)
            return self._forward(time, node, action.packet, action.header, text)
        if kind is _KIND_DROP and isinstance(action.reason, DropReason) and (
                (note := action.note) is None or isinstance(note, str) and note.isprintable()):
            return self._drop(time, node, packet, header, text, action.reason, note)
        if kind is _KIND_FORWARD_TO and isinstance(action.next_hop, str):
            return self._forward(time, node, packet, header, text, action.next_hop)
        if kind is _KIND_FORWARD_BY_IP:
            return self._forward(time, node, packet, header, text)
        raise _refusal(node, header, action)

    def _drop(self, time: int, node: Node, packet: IpPacket, header: Optional[GvnHeader],
              text: _Text, reason: DropReason, note: Optional[str] = None) -> None:
        value = reason.value  # a Python property on the enum: read once
        self.dropped[value] = self.dropped.get(value, 0) + 1
        self._record(time, node.id, f"Drop({value})", packet, header, text, note)

    def _deliver(self, time: int, node: Node, packet: IpPacket, header: Optional[GvnHeader],
                 text: _Text, note: Optional[str] = None) -> None:
        self.delivered.append((node.id, packet))
        self._record(time, node.id, "Deliver", packet, header, text, note)

    def _forward(self, time: int, node: Node, packet: IpPacket, header: Optional[GvnHeader],
                 text: _Text, next_hop: Optional[str] = None) -> Optional[_Sent]:
        """Send ``packet`` on from ``node`` to ``next_hop``, or, when that is
        None, by its IP destination, which may be ``node`` itself."""
        if next_hop is None:
            route = node.forwarding.get(text[1])
            if route is None:  # a node's first packet to this destination
                route = node.forwarding[text[1]] = (
                    _LOCAL if node.addresses.has_dst(packet)
                    else self._hop(node, node.routing.lookup(packet.dst), packet))
            if route is _LOCAL:
                # A GVN-capable stack consumes its own well-formed tagged
                # packets; anything else follows ordinary transport handling.
                if header is not None and node.registry is not None:
                    return self._deliver(time, node, packet, header, text)
                return self._resolve(time, node, packet, header, text, receive_action(packet))
        else:
            route = self._hop(node, next_hop, packet)
        if route is _NO_ROUTE:
            note = f"no route to {text[1]}" if next_hop is None else f"no link to {next_hop}"
            return self._drop(time, node, packet, header, text, _DROP_NO_ROUTE, note)
        to, lane, note, pops = route
        if node.decrements_ttl:
            if packet.ttl <= 1:
                return self._drop(time, node, packet, header, text, _DROP_TTL_EXPIRED)
            packet = packet.with_ttl(packet.ttl - 1)
        if pops and header is not None:
            packet = strip_gvn(packet, header)
            self._record(time, node.id, "Pop", packet, None, text, f"code={header.code:#012x}")
            header = None
        records = self.records  # the Forward record, as _record builds it
        records.append((len(records), time, node.id, "Forward", text[0], text[1],
                        packet.protocol, None if header is None else header.code, packet.ttl, note))
        return lane, to, packet, header, text

    def _hop(self, node: Node, next_hop: Optional[str], packet: IpPacket) -> object:
        """Sending ``packet`` from ``node`` to ``next_hop``: (next Node,
        lane, note, whether ``pop_egress`` pops), or ``_NO_ROUTE``."""
        if next_hop not in node.links:  # None, or a link edited away after load
            return _NO_ROUTE
        pop_egress = node.pop_egress
        return (self.nodes[next_hop], *node.links[next_hop],
                pop_egress is not None and pop_egress.lookup(packet.dst) is not None)

    # -- main loop ----------------------------------------------------------

    def run(self, injections: List[Injection], max_steps: int) -> RunResult:
        text_of, nodes, arrive = self._text_of, self.nodes, self.arrive
        entering = []
        # Hand-built injections are refused, before any record, as the loader refuses them.
        for i, (node_id, time, packet) in enumerate(injections):
            if type(time) is not int:
                raise TypeError(f"injection {i}: time must be an integer, got {_show(time)}")
            if time < 0:
                raise ValueError(f"injection {i}: time must be non-negative, got {_show(time)}")
            node = nodes.get(node_id) if type(node_id) is str else None
            if node is None:
                raise ValueError(f"injection {i}: unknown node {_show(node_id)}")
            if not isinstance(packet, IpPacket):  # a plain tuple of its fields too
                raise TypeError(f"injection {i}: packet must be an IpPacket, got {_show(packet)}")
            entering.append((time, i, (_INJECT_LANE, node, packet, classify(packet).header,
                                       (text_of(packet.src), text_of(packet.dst)))))
        # Latest first, so the next to enter is last; (time, index) is unique.
        entering.sort(key=_BY_ENTRY, reverse=True)
        sent: List[_Sent] = []
        time, exceeded = -1, False
        while sent or entering:
            time = time + 1 if sent else entering[-1][0]
            if time >= max_steps:
                exceeded = True
                break
            while entering and entering[-1][0] == time:
                sent.append(entering.pop()[2])
            if len(sent) == 1:  # every step of a one-packet run: no sort and no new list
                _lane_id, node, packet, header, text = sent.pop()
                forward = arrive(time, node, packet, header, text)
                if forward is not None:
                    sent.append(forward)
                continue
            # Stable, so each lane keeps its send order; a node id may sort before "!inject".
            sent.sort(key=_BY_LANE)
            step, sent = sent, []
            for _lane_id, node, packet, header, text in step:
                forward = arrive(time, node, packet, header, text)
                if forward is not None:
                    sent.append(forward)
        return RunResult(records=self.records,
                         steps=max_steps if exceeded else time + 1,
                         step_limit_exceeded=exceeded, injected=len(injections),
                         delivered=len(self.delivered), dropped=self.dropped,
                         in_flight=len(sent) + len(entering), delivered_packets=self.delivered)


def run(topology: Topology, injections: List[Injection], max_steps: int) -> RunResult:
    """Execute injections over the topology until quiescence or the step
    limit; returns the complete trace and accounting."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    return _Sim(topology).run(injections, max_steps)


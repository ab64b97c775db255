"""Reference fate model for generated scenarios.

The workload generators describe each topology in this module's own terms
and ask it where every injected packet ends up.  The model walks a packet
hop by hop following the receive matrix in the ``gvn.framework`` docstring
and the simulator's documented forwarding rules (router-only TTL decrement,
edge push on ingress and pop on egress, flow-rule delivery).  It imports
nothing from ``gvn``: route lookup is a hash table per prefix length rather
than the package's linear scan, and GVN headers are packed by hand, so the
prediction is an independent check of the simulator's result.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, replace
from ipaddress import ip_address, ip_network
from typing import Dict, List, Optional, Tuple

GVN_PROTOCOL = 254
KNOWN_TRANSPORTS = frozenset({1, 6, 17, 58})
FLAG_DROP_ON_UNKNOWN = 0x80
NFV_CODE, ICN_CODE, VPN_CODE = 1, 2, 3

LEGACY_KINDS = frozenset({"legacy_host", "legacy_router"})
TTL_DECREMENTING = frozenset({"legacy_router", "gvn_router"})
MAX_HOPS = 1024


@dataclass(frozen=True)
class Tag:
    next_header: int
    code: int
    flags: int = 0
    pl_data: bytes = b""

    def to_bytes(self) -> bytes:
        return (bytes(((8 + len(self.pl_data)) // 4, self.next_header, self.flags))
                + self.code.to_bytes(5, "big") + self.pl_data)


@dataclass(frozen=True)
class Datagram:
    """An IP datagram as the model sees it: the GVN header is kept apart
    from the transport payload, so a tag can be pushed and popped."""

    version: int
    src: str
    dst: str
    protocol: int
    ttl: int
    payload: bytes = b""
    tag: Optional[Tag] = None
    tos: int = 0
    ident: int = 0
    traffic_class: int = 0
    flow_label: int = 0

    def push(self, tag: Tag) -> "Datagram":
        return replace(self, protocol=GVN_PROTOCOL, tag=tag)

    def pop(self) -> "Datagram":
        return replace(self, protocol=self.tag.next_header, tag=None)

    def fields(self) -> tuple:
        """Every field of the datagram as the simulator's packet exposes it
        (flags and fragment offset are never set by the generators)."""
        wire = (self.tag.to_bytes() if self.tag else b"") + self.payload
        return (self.version, self.src, self.dst, self.protocol, self.ttl, wire,
                self.tos, self.ident, 0, 0, self.traffic_class, self.flow_label)


def nfv_data(spi: int, si: int, original_dst: str) -> bytes:
    packed = ip_address(original_dst).packed
    family = 4 if len(packed) == 4 else 6
    return bytes((1,)) + spi.to_bytes(3, "big") + bytes((si, family, 0, 0)) + packed


def content_tag(name: str) -> bytes:
    return hashlib.sha256(name.encode("utf-8")).digest()[:8]


def vpn_data(vnid: int) -> bytes:
    return struct.pack("!II", vnid, 0)


@dataclass
class IngressRule:
    src: str
    proto: int
    dst: Optional[str] = None
    push: Optional[Tuple[int, int, bytes]] = None  # (code, flags, pl_data)
    encap_spi: Optional[int] = None


@dataclass
class MNode:
    id: str
    kind: str
    addresses: List[str]
    routes: List[Tuple[str, str]] = field(default_factory=list)
    neighbors: List[str] = field(default_factory=list)
    vpn_allowed: Optional[frozenset] = None
    icn_table: Optional[Dict[str, str]] = None  # content name -> next hop
    nfv: bool = False
    ingress: List[IngressRule] = field(default_factory=list)
    pop_egress: List[str] = field(default_factory=list)
    has_edge_policy: bool = False
    deliver_code: Optional[int] = None  # flow rule: deliver packets with this code


@dataclass
class _Compiled:
    """A node's addresses and tables in lookup form; ``routes`` maps
    (version, prefix length) to {masked address: [next hops]}."""

    owned: frozenset
    routes: Dict[Tuple[int, int], Dict[int, List[str]]]
    lengths: Dict[int, List[int]]  # per version, longest first
    pop_egress: list
    ingress: list                  # (rule, source network, destination network)
    icn_tags: Dict[bytes, str]


class Fabric:
    """A generated topology plus the means to predict packet fates."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: Dict[str, MNode] = {}
        self.links: List[Tuple[str, str]] = []
        self.chains: Dict[int, List[Tuple[str, str]]] = {}  # spi -> [(address, node)]
        self._compiled = None

    def add(self, node: MNode) -> MNode:
        self.nodes[node.id] = node
        return node

    def link(self, a: str, b: str) -> None:
        self.links.append((a, b))
        self.nodes[a].neighbors.append(b)
        self.nodes[b].neighbors.append(a)

    # -- scenario document ----------------------------------------------------

    def document(self, injections: List[dict], max_steps: int) -> dict:
        routes = {n.id: [{"prefix": p, "next_hop": h} for p, h in n.routes]
                  for n in self.nodes.values() if n.routes}
        registries: Dict[str, list] = {}
        flow_rules: Dict[str, list] = {}
        edge_policies: Dict[str, dict] = {}
        for n in self.nodes.values():
            entries = []
            if n.nfv and n.kind != "nfv_function":
                entries.append({"pl": "nfv"})
            if n.vpn_allowed is not None:
                entries.append({"pl": "vpn", "allowed": sorted(n.vpn_allowed)})
            if n.icn_table is not None:
                entries.append({"pl": "icn", "routes": [
                    {"content": name, "next_hop": hop}
                    for name, hop in sorted(n.icn_table.items())]})
            if entries:
                registries[n.id] = entries
            if n.deliver_code is not None:
                flow_rules[n.id] = [{"priority": 10, "match": {"code": n.deliver_code},
                                     "action": {"kind": "deliver"}}]
            if n.has_edge_policy:
                ingress = []
                for rule in n.ingress:
                    match = {"src_prefix": rule.src, "protocol": rule.proto}
                    if rule.dst is not None:
                        match["dst_prefix"] = rule.dst
                    if rule.push is not None:
                        code, flags, pl = rule.push
                        action = {"push": {"code": code, "flags": flags,
                                           "pl_data_hex": pl.hex()}}
                    else:
                        action = {"encap_chain": rule.encap_spi}
                    ingress.append({"match": match, "action": action})
                edge_policies[n.id] = {"ingress": ingress, "pop_egress": list(n.pop_egress)}
        return {
            "name": self.name,
            "max_steps": max_steps,
            "nodes": [{"id": n.id, "kind": n.kind, "addresses": n.addresses}
                      for n in self.nodes.values()],
            "links": [[a, b] for a, b in self.links],
            "routes": routes,
            "registries": registries,
            "chains": [{"spi": spi, "functions": [{"address": a, "node": n} for a, n in hops]}
                       for spi, hops in self.chains.items()],
            "edge_policies": edge_policies,
            "flow_rules": flow_rules,
            "injections": injections,
        }

    # -- prediction -------------------------------------------------------------

    def _compile(self) -> Dict[str, "_Compiled"]:
        compiled = {}
        for n in self.nodes.values():
            routes: Dict[Tuple[int, int], Dict[int, List[str]]] = {}
            for prefix, hop in n.routes:
                net = ip_network(prefix, strict=False)
                key = int(net.network_address) >> (net.max_prefixlen - net.prefixlen)
                routes.setdefault((net.version, net.prefixlen), {}).setdefault(key, []).append(hop)
            compiled[n.id] = _Compiled(
                owned=frozenset(ip_address(a) for a in n.addresses),
                routes=routes,
                lengths={v: sorted((pl for ver, pl in routes if ver == v), reverse=True)
                         for v in (4, 6)},
                pop_egress=[ip_network(p) for p in n.pop_egress],
                ingress=[(r, ip_network(r.src), ip_network(r.dst) if r.dst else None)
                         for r in n.ingress],
                icn_tags={content_tag(name): hop for name, hop in (n.icn_table or {}).items()},
            )
        return compiled

    def _lookup(self, node_id: str, dst) -> Optional[str]:
        """Longest prefix first; equal lengths go to the lowest next hop."""
        c = self._compiled[node_id]
        bits = 32 if dst.version == 4 else 128
        value = int(dst)
        for plen in c.lengths[dst.version]:
            hops = c.routes[(dst.version, plen)].get(value >> (bits - plen))
            if hops:
                return min(hops)
        return None

    def predict(self, node_id: str, packet: Datagram) -> tuple:
        """Fate of ``packet`` injected at ``node_id``: ("Deliver", node,
        datagram as delivered) or ("Drop", node, reason)."""
        if self._compiled is None:
            self._compiled = self._compile()
        for _ in range(MAX_HOPS):
            outcome = self._at_node(self.nodes[node_id], packet)
            if outcome[0] != "Forward":
                return outcome
            _, node_id, packet = outcome
        raise RuntimeError(f"{self.name}: packet circulates past {MAX_HOPS} hops")

    def _at_node(self, node: MNode, p: Datagram) -> tuple:
        c = self._compiled[node.id]
        owned = c.owned
        dst = ip_address(p.dst)
        if node.kind in LEGACY_KINDS:
            return self._ip_level(node, p, dst in owned)
        if node.kind == "gvn_edge" and node.has_edge_policy and p.tag is None:
            src = ip_address(p.src)
            for rule, src_net, dst_net in c.ingress:
                if rule.proto != p.protocol or src not in src_net:
                    continue
                if dst_net is not None and dst not in dst_net:
                    continue
                if rule.push is not None:
                    code, flags, pl = rule.push
                    p = p.push(Tag(p.protocol, code, flags, pl))
                else:
                    hops = self.chains[rule.encap_spi]
                    p = replace(p.push(Tag(p.protocol, NFV_CODE, 0,
                                           nfv_data(rule.encap_spi, len(hops), p.dst))),
                                dst=hops[0][0])
                    dst = ip_address(p.dst)
                break
        if p.tag is not None:
            if node.deliver_code == p.tag.code:
                return ("Deliver", node.id, p)
            code = p.tag.code
            if code == NFV_CODE and node.nfv:
                if dst in owned:
                    return self._nfv_step(node, p)
                return self._forward_by_ip(node, p)
            if code == ICN_CODE and node.icn_table is not None:
                hop = c.icn_tags.get(p.tag.pl_data[:8])
                if hop is not None:
                    return self._forward_to(node, p, hop)
                return self._forward_by_ip(node, p)
            if code == VPN_CODE and node.vpn_allowed is not None:
                vnid = int.from_bytes(p.tag.pl_data[:4], "big")
                if vnid in node.vpn_allowed:
                    return self._forward_by_ip(node, p)
                return ("Drop", node.id, "VpnViolation")
            if p.tag.flags & FLAG_DROP_ON_UNKNOWN:
                return ("Drop", node.id, "UnknownCode")
        return self._ip_level(node, p, dst in owned)

    def _ip_level(self, node: MNode, p: Datagram, local: bool) -> tuple:
        if not local:
            return self._forward_by_ip(node, p)
        if p.protocol in KNOWN_TRANSPORTS:
            return ("Deliver", node.id, p)
        return ("Drop", node.id, "UnknownTransport")

    def _nfv_step(self, node: MNode, p: Datagram) -> tuple:
        data = p.tag.pl_data
        spi, si = int.from_bytes(data[1:4], "big"), data[4]
        hops = self.chains.get(spi)
        if hops is None:
            return ("Drop", node.id, "UnknownSpi")
        if not 1 <= si <= len(hops) or hops[len(hops) - si][0] != p.dst:
            return ("Drop", node.id, "SiMismatch")
        if si > 1:
            tag = replace(p.tag, pl_data=data[:4] + bytes((si - 1,)) + data[5:])
            p = replace(p, tag=tag, dst=hops[len(hops) - si + 1][0])
        else:
            p = replace(p.pop(), dst=str(ip_address(data[8:])))
        return self._forward_by_ip(node, p)

    def _forward_by_ip(self, node: MNode, p: Datagram) -> tuple:
        dst = ip_address(p.dst)
        if dst in self._compiled[node.id].owned:
            if p.protocol in KNOWN_TRANSPORTS:
                return ("Deliver", node.id, p)
            if p.tag is not None and node.kind not in LEGACY_KINDS:
                return ("Deliver", node.id, p)
            return ("Drop", node.id, "UnknownTransport")
        hop = self._lookup(node.id, dst)
        if hop is None and not node.routes:
            hop = next((nb for nb in sorted(node.neighbors)
                        if dst in self._compiled[nb].owned), None)
        if hop is None:
            return ("Drop", node.id, "NoRoute")
        return self._emit(node, p, hop)

    def _forward_to(self, node: MNode, p: Datagram, hop: str) -> tuple:
        if hop not in node.neighbors:
            return ("Drop", node.id, "NoRoute")
        return self._emit(node, p, hop)

    def _emit(self, node: MNode, p: Datagram, hop: str) -> tuple:
        if node.kind in TTL_DECREMENTING:
            if p.ttl <= 1:
                return ("Drop", node.id, "TtlExpired")
            p = replace(p, ttl=p.ttl - 1)
        if node.kind == "gvn_edge" and node.has_edge_policy and p.tag is not None:
            dst = ip_address(p.dst)
            if any(dst in net for net in self._compiled[node.id].pop_egress):
                p = p.pop()
        return ("Forward", hop, p)

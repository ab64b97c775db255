"""Topology model and scenario-document loading.

A scenario is a JSON object with sections ``nodes``, ``links``, ``routes``,
``registries``, ``chains``, ``edge_policies``, ``flow_rules`` and
``injections``.  Loading is strict: unknown keys, dangling node references,
and invalid field values all raise SchemaError subclasses, and construction
is fully deterministic (section order and list order are preserved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv4Network, IPv6Network, ip_address, ip_network
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..codec import CODE_MAX, GvnHeader, push_gvn
from ..errors import DanglingReference, DuplicateNodeId, GvnError, SchemaError
from ..framework import DropReason, PlRegistry
from ..logics import (
    ICN_CODE,
    NFV_CODE,
    OPAQUE_DEMO_CODE,
    VPN_CODE,
    ChainHop,
    ServiceChain,
    VpnData,
    content_tag,
    make_icn_handler,
    make_nfv_handler,
    make_vpn_handler,
    nfv_encap,
)
from ..packet import IPAddress, IpPacket

IPNetwork = Union[IPv4Network, IPv6Network]

CODE_NAMES = {
    "nfv": NFV_CODE,
    "icn": ICN_CODE,
    "vpn": VPN_CODE,
    "opaque": OPAQUE_DEMO_CODE,
}


class NodeKind(Enum):
    LEGACY_HOST = "legacy_host"
    LEGACY_ROUTER = "legacy_router"
    GVN_END_HOST = "gvn_end_host"
    GVN_EDGE = "gvn_edge"
    GVN_ROUTER = "gvn_router"
    NFV_FUNCTION = "nfv_function"


LEGACY_KINDS = frozenset({NodeKind.LEGACY_HOST, NodeKind.LEGACY_ROUTER})
GVN_KINDS = frozenset(NodeKind) - LEGACY_KINDS
# Only router kinds decrement TTL; edge and function nodes behave as
# transparent shims so tag round trips stay byte-exact where possible.
TTL_DECREMENTING = frozenset({NodeKind.LEGACY_ROUTER, NodeKind.GVN_ROUTER})


@dataclass(frozen=True)
class RouteEntry:
    network: IPNetwork
    next_hop: str


class PrefixTable:
    """Longest-prefix match from IPv4 and IPv6 prefixes to values.

    Prefixes are grouped by (IP version, prefix length) into one dict per
    group, keyed by the prefix's network bits, ``int(network_address) >>
    (max_prefixlen - prefixlen)``.  ``lookup`` turns the address into an
    integer once and probes the lengths present for its version, longest
    first (Waldvogel et al., "Scalable High Speed IP Routing Lookups",
    SIGCOMM 1997, less their binary search over the lengths, which pays
    only when there are many).  Its cost grows with the number of distinct
    lengths, not with the number of prefixes.  A prefix given more than
    once keeps its lowest-sorting value.  Values must not be None.
    """

    def __init__(self, items: Iterable[Tuple[IPNetwork, Any]] = ()) -> None:
        groups: Dict[Tuple[int, int], dict] = {}
        for network, value in items:
            group = groups.setdefault((network.version, network.prefixlen), {})
            key = int(network.network_address) >> (network.max_prefixlen - network.prefixlen)
            if key not in group or value < group[key]:
                group[key] = value
        # Per version: (shift, group) for each prefix length, longest first.
        self._probes: Dict[int, List[Tuple[int, dict]]] = {4: [], 6: []}
        for version, length in sorted(groups, reverse=True):
            width = 32 if version == 4 else 128
            self._probes[version].append((width - length, groups[version, length]))

    @classmethod
    def of_prefixes(cls, networks: Iterable[IPNetwork]) -> "PrefixTable":
        """A prefix set: every network maps to True."""
        return cls((network, True) for network in networks)

    def lookup(self, addr: IPAddress) -> Any:
        """The value of the longest prefix covering ``addr``, None if none
        does (an address of the other family matches nothing)."""
        bits = int(addr)
        for shift, group in self._probes[addr.version]:
            value = group.get(bits >> shift)
            if value is not None:
                return value
        return None


class RoutingTable(PrefixTable):
    """A node's routes: the longest matching prefix wins, and a prefix
    listed more than once goes to its lexicographically lowest next hop.
    ``entries`` are the routes the table was built from; lookups do not
    see later changes to that list."""

    def __init__(self, entries: Optional[List[RouteEntry]] = None) -> None:
        self.entries: List[RouteEntry] = list(entries or [])
        super().__init__((entry.network, entry.next_hop) for entry in self.entries)

    # Bound on this class too, so that patching ``RoutingTable.lookup``
    # (to time or count route lookups) leaves the other prefix matches alone.
    lookup = PrefixTable.lookup

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class HeaderTemplate:
    """Static header to push: code, flags, and prebuilt PL data bytes."""

    code: int
    flags: int = 0
    pl_data: bytes = b""

    def build(self, packet: IpPacket) -> GvnHeader:
        return GvnHeader(next_header=packet.protocol, code=self.code,
                         flags=self.flags, pl_data=self.pl_data)


@dataclass(frozen=True)
class RuleAction:
    """Flow-rule action: a forwarding decision or a push/pop directive."""

    kind: str  # forward_to | forward_by_ip | deliver | drop | push | pop
    next_hop: Optional[str] = None
    reason: DropReason = DropReason.POLICY
    header: Optional[HeaderTemplate] = None


@dataclass(frozen=True)
class FlowRule:
    priority: int
    action: RuleAction
    match_code: Optional[int] = None
    match_pl_prefix: Optional[Tuple[int, bytes]] = None
    match_dst_prefix: Optional[PrefixTable] = None


@dataclass(frozen=True)
class EdgeIngressRule:
    template: Optional[HeaderTemplate] = None
    encap_spi: Optional[int] = None
    match_dst_prefix: Optional[PrefixTable] = None
    match_src_prefix: Optional[PrefixTable] = None
    match_protocol: Optional[int] = None

    def matches(self, packet: IpPacket) -> bool:
        if self.match_protocol is not None and packet.protocol != self.match_protocol:
            return False
        if self.match_dst_prefix is not None and self.match_dst_prefix.lookup(packet.dst) is None:
            return False
        if self.match_src_prefix is not None and self.match_src_prefix.lookup(packet.src) is None:
            return False
        return True


@dataclass(frozen=True)
class EdgePolicy:
    ingress: Tuple[EdgeIngressRule, ...] = ()
    pop_egress: PrefixTable = field(default_factory=PrefixTable)

    def should_pop(self, dst: IPAddress) -> bool:
        return self.pop_egress.lookup(dst) is not None


@dataclass
class Node:
    id: str
    kind: NodeKind
    addresses: frozenset
    routing: RoutingTable = field(default_factory=RoutingTable)
    registry: Optional[PlRegistry] = None
    flow_rules: Tuple[FlowRule, ...] = ()
    edge_policy: Optional[EdgePolicy] = None
    neighbors: Tuple[str, ...] = ()

    @property
    def is_gvn(self) -> bool:
        return self.kind in GVN_KINDS

    @property
    def decrements_ttl(self) -> bool:
        return self.kind in TTL_DECREMENTING


@dataclass
class Topology:
    nodes: Dict[str, Node]
    chains: Dict[int, ServiceChain]


@dataclass(frozen=True)
class Injection:
    node: str
    time: int
    packet: IpPacket


@dataclass
class Scenario:
    name: str
    topology: Topology
    injections: List[Injection]
    max_steps: int = 10_000


# -- document parsing ----------------------------------------------------------

_TOP_KEYS = {"name", "max_steps", "nodes", "links", "routes", "registries",
             "chains", "edge_policies", "flow_rules", "injections"}


def _fail(msg: str) -> None:
    raise SchemaError(msg)


def _get_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        _fail(f"section {key!r} must be a list")
    return value


def _get_map(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        _fail(f"section {key!r} must be an object")
    return value


def _parse_network(text: str, where: str) -> IPNetwork:
    try:
        return ip_network(text, strict=False)
    except ValueError as exc:
        _fail(f"{where}: bad prefix {text!r}: {exc}")


def _parse_prefix_match(match: dict, key: str, where: str) -> Optional[PrefixTable]:
    if key not in match:
        return None
    return PrefixTable.of_prefixes([_parse_network(match[key], where)])


def _parse_address(text: str, where: str) -> IPAddress:
    try:
        return ip_address(text)
    except ValueError as exc:
        _fail(f"{where}: bad address {text!r}: {exc}")


def _parse_int(value, where: str, name: str) -> int:
    if type(value) is not int:  # bool and float are not accepted
        _fail(f"{where}.{name}: must be an integer, got {value!r}")
    return value


def parse_code(value, where: str = "code") -> int:
    """Accept an integer, a 0x-prefixed string, or a builtin logic name."""
    if isinstance(value, bool):
        _fail(f"{where}: booleans are not codes")
    if isinstance(value, int):
        code = value
    elif isinstance(value, str):
        if value in CODE_NAMES:
            code = CODE_NAMES[value]
        else:
            try:
                code = int(value, 0)
            except ValueError:
                _fail(f"{where}: {value!r} is neither a number nor a known logic name")
    else:
        _fail(f"{where}: unsupported code value {value!r}")
    if not 0 <= code <= CODE_MAX:
        _fail(f"{where}: {code:#x} outside the 40-bit code space")
    return code


def _parse_pl_data(spec, where: str) -> bytes:
    """PL data from a declarative spec: vpn vnid, icn content name, or raw hex."""
    if spec is None:
        return b""
    if not isinstance(spec, dict) or "kind" not in spec:
        _fail(f"{where}: pl spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "vpn":
        vnid = _parse_int(spec.get("vnid", 0), where, "vnid")
        try:
            return VpnData(vnid).to_bytes()
        except GvnError as exc:
            _fail(f"{where}: {exc}")
    if kind == "icn":
        name = spec.get("name")
        if not isinstance(name, str):
            _fail(f"{where}: icn pl spec needs a 'name'")
        return content_tag(name)
    if kind == "raw":
        try:
            data = bytes.fromhex(spec.get("hex", ""))
        except ValueError as exc:
            _fail(f"{where}: bad hex: {exc}")
        if len(data) % 4:
            _fail(f"{where}: raw pl data must be 4-byte aligned, got {len(data)}")
        return data
    _fail(f"{where}: unknown pl spec kind {kind!r}")


def _parse_template(spec: dict, where: str) -> HeaderTemplate:
    if not isinstance(spec, dict):
        _fail(f"{where}: push spec must be an object")
    code = parse_code(spec.get("code"), f"{where}.code")
    flags = _parse_int(spec.get("flags", 0), where, "flags")
    if "pl_data_hex" in spec:
        try:
            pl_data = bytes.fromhex(spec["pl_data_hex"])
        except ValueError as exc:
            _fail(f"{where}: bad pl_data_hex: {exc}")
    else:
        pl_data = _parse_pl_data(spec.get("pl"), where)
    try:
        # Every build makes this header, with the packet's protocol as next_header.
        GvnHeader(next_header=0, code=code, flags=flags, pl_data=pl_data)
    except GvnError as exc:
        _fail(f"{where}: template does not build a valid header: {exc}")
    return HeaderTemplate(code=code, flags=flags, pl_data=pl_data)


def _parse_nodes(doc: dict) -> Dict[str, Node]:
    nodes: Dict[str, Node] = {}
    node_specs = _get_list(doc, "nodes")
    if not node_specs:
        _fail("scenario defines no nodes")
    for i, spec in enumerate(node_specs):
        where = f"nodes[{i}]"
        if not isinstance(spec, dict):
            _fail(f"{where}: must be an object")
        node_id = spec.get("id")
        if not isinstance(node_id, str) or not node_id:
            _fail(f"{where}: missing id")
        if node_id in nodes:
            raise DuplicateNodeId(f"{where}: node {node_id!r} defined twice")
        try:
            kind = NodeKind(spec.get("kind"))
        except ValueError:
            _fail(f"{where}: unknown kind {spec.get('kind')!r}")
        addresses = frozenset(
            _parse_address(a, f"{where}.addresses") for a in spec.get("addresses", []))
        nodes[node_id] = Node(id=node_id, kind=kind, addresses=addresses,
                              registry=PlRegistry() if kind in GVN_KINDS else None)
    return nodes


def _parse_links(doc: dict, nodes: Dict[str, Node]) -> None:
    seen = set()
    adjacency: Dict[str, List[str]] = {node_id: [] for node_id in nodes}
    for i, pair in enumerate(_get_list(doc, "links")):
        where = f"links[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail(f"{where}: must be a two-element [a, b] list")
        a, b = pair
        for end in (a, b):
            if not isinstance(end, str):
                _fail(f"{where}: node ids must be strings, got {end!r}")
            if end not in nodes:
                raise DanglingReference(f"{where}: unknown node {end!r}")
        if a == b:
            _fail(f"{where}: self-links are not allowed")
        key = frozenset((a, b))
        if key in seen:
            _fail(f"{where}: duplicate link {a!r}-{b!r}")
        seen.add(key)
        adjacency[a].append(b)
        adjacency[b].append(a)
    for node_id, neigh in adjacency.items():
        nodes[node_id].neighbors = tuple(sorted(neigh))


def _parse_routes(doc: dict, nodes: Dict[str, Node]) -> None:
    for node_id, entries in _get_map(doc, "routes").items():
        if node_id not in nodes:
            raise DanglingReference(f"routes: unknown node {node_id!r}")
        if not isinstance(entries, list):
            _fail(f"routes[{node_id!r}]: must be a list")
        table = []
        for i, entry in enumerate(entries):
            where = f"routes[{node_id!r}][{i}]"
            if not isinstance(entry, dict):
                _fail(f"{where}: must be an object")
            network = _parse_network(entry.get("prefix", ""), where)
            next_hop = entry.get("next_hop")
            if next_hop not in nodes:
                raise DanglingReference(f"{where}: unknown next hop {next_hop!r}")
            if next_hop not in nodes[node_id].neighbors:
                _fail(f"{where}: next hop {next_hop!r} is not attached to {node_id!r}")
            table.append(RouteEntry(network=network, next_hop=next_hop))
        nodes[node_id].routing = RoutingTable(table)


def _parse_chains(doc: dict, nodes: Dict[str, Node]) -> Dict[int, ServiceChain]:
    chains: Dict[int, ServiceChain] = {}
    for i, spec in enumerate(_get_list(doc, "chains")):
        where = f"chains[{i}]"
        if not isinstance(spec, dict):
            _fail(f"{where}: must be an object")
        spi = spec.get("spi")
        if not isinstance(spi, int) or not 0 <= spi < (1 << 24):
            _fail(f"{where}: spi must be a 24-bit integer")
        if spi in chains:
            _fail(f"{where}: duplicate spi {spi}")
        hops = []
        functions = spec.get("functions", [])
        if not functions:
            _fail(f"{where}: chain has no functions")
        for j, fn in enumerate(functions):
            fw = f"{where}.functions[{j}]"
            if not isinstance(fn, dict):
                _fail(f"{fw}: must be an object")
            node_id = fn.get("node")
            if node_id not in nodes:
                raise DanglingReference(f"{fw}: unknown node {node_id!r}")
            address = _parse_address(fn.get("address", ""), fw)
            if address not in nodes[node_id].addresses:
                _fail(f"{fw}: {address} is not an address of {node_id!r}")
            hops.append(ChainHop(address=address, node_id=node_id))
        chains[spi] = ServiceChain(spi=spi, functions=tuple(hops))
    return chains


def _parse_registries(doc: dict, nodes: Dict[str, Node],
                      chains: Dict[int, ServiceChain]) -> None:
    for node_id, entries in _get_map(doc, "registries").items():
        if node_id not in nodes:
            raise DanglingReference(f"registries: unknown node {node_id!r}")
        node = nodes[node_id]
        if not node.is_gvn:
            _fail(f"registries[{node_id!r}]: legacy nodes cannot hold logics")
        if not isinstance(entries, list):
            _fail(f"registries[{node_id!r}]: must be a list")
        for i, entry in enumerate(entries):
            where = f"registries[{node_id!r}][{i}]"
            if not isinstance(entry, dict) or "pl" not in entry:
                _fail(f"{where}: must be an object with a 'pl'")
            name = entry["pl"]
            if name == "nfv":
                node.registry.register(make_nfv_handler(chains))
            elif name == "icn":
                table = {}
                for j, route in enumerate(entry.get("routes", [])):
                    rw = f"{where}.routes[{j}]"
                    if not isinstance(route, dict):
                        _fail(f"{rw}: must be an object")
                    if "content" in route:
                        tag = content_tag(route["content"])
                    elif "tag_hex" in route:
                        try:
                            tag = bytes.fromhex(route["tag_hex"])
                        except ValueError as exc:
                            _fail(f"{rw}: bad tag_hex: {exc}")
                    else:
                        _fail(f"{rw}: needs 'content' or 'tag_hex'")
                    next_hop = route.get("next_hop")
                    if next_hop not in nodes:
                        raise DanglingReference(f"{rw}: unknown next hop {next_hop!r}")
                    table[tag] = next_hop
                node.registry.register(make_icn_handler(table))
            elif name == "vpn":
                allowed = entry.get("allowed", [])
                if not isinstance(allowed, list) or not all(isinstance(v, int) for v in allowed):
                    _fail(f"{where}: 'allowed' must be a list of integers")
                node.registry.register(make_vpn_handler(frozenset(allowed)))
            else:
                _fail(f"{where}: unknown logic {name!r}")


def _parse_edge_policies(doc: dict, nodes: Dict[str, Node],
                         chains: Dict[int, ServiceChain]) -> None:
    for node_id, spec in _get_map(doc, "edge_policies").items():
        if node_id not in nodes:
            raise DanglingReference(f"edge_policies: unknown node {node_id!r}")
        node = nodes[node_id]
        if node.kind is not NodeKind.GVN_EDGE:
            _fail(f"edge_policies[{node_id!r}]: node is not an edge node")
        if not isinstance(spec, dict):
            _fail(f"edge_policies[{node_id!r}]: must be an object")
        rules = []
        for i, rule in enumerate(spec.get("ingress", [])):
            where = f"edge_policies[{node_id!r}].ingress[{i}]"
            if not isinstance(rule, dict):
                _fail(f"{where}: must be an object")
            match = rule.get("match", {})
            action = rule.get("action", {})
            template = None
            encap_spi = None
            if "push" in action:
                template = _parse_template(action["push"], f"{where}.push")
            elif "encap_chain" in action:
                encap_spi = action["encap_chain"]
                if encap_spi not in chains:
                    raise DanglingReference(f"{where}: unknown chain spi {encap_spi!r}")
            else:
                _fail(f"{where}: action needs 'push' or 'encap_chain'")
            rules.append(EdgeIngressRule(
                template=template,
                encap_spi=encap_spi,
                match_dst_prefix=_parse_prefix_match(match, "dst_prefix", where),
                match_src_prefix=_parse_prefix_match(match, "src_prefix", where),
                match_protocol=match.get("protocol"),
            ))
        pop = PrefixTable.of_prefixes(
            _parse_network(p, f"edge_policies[{node_id!r}].pop_egress")
            for p in spec.get("pop_egress", []))
        node.edge_policy = EdgePolicy(ingress=tuple(rules), pop_egress=pop)


def _parse_flow_rules(doc: dict, nodes: Dict[str, Node]) -> None:
    for node_id, rules in _get_map(doc, "flow_rules").items():
        if node_id not in nodes:
            raise DanglingReference(f"flow_rules: unknown node {node_id!r}")
        node = nodes[node_id]
        if not node.is_gvn:
            _fail(f"flow_rules[{node_id!r}]: legacy nodes have no flow tables")
        if not isinstance(rules, list):
            _fail(f"flow_rules[{node_id!r}]: must be a list")
        parsed = []
        for i, rule in enumerate(rules):
            where = f"flow_rules[{node_id!r}][{i}]"
            if not isinstance(rule, dict):
                _fail(f"{where}: must be an object")
            match = rule.get("match", {})
            action_spec = rule.get("action", {})
            kind = action_spec.get("kind")
            if kind not in {"forward_to", "forward_by_ip", "deliver", "drop", "push", "pop"}:
                _fail(f"{where}: unknown action kind {kind!r}")
            next_hop = action_spec.get("next_hop")
            if kind == "forward_to":
                if next_hop not in nodes:
                    raise DanglingReference(f"{where}: unknown next hop {next_hop!r}")
            header = (_parse_template(action_spec["header"], f"{where}.header")
                      if kind == "push" else None)
            if kind == "push" and "header" not in action_spec:
                _fail(f"{where}: push action needs a 'header'")
            reason = DropReason.POLICY
            if "reason" in action_spec:
                try:
                    reason = DropReason(action_spec["reason"])
                except ValueError:
                    _fail(f"{where}: unknown drop reason {action_spec['reason']!r}")
            pl_prefix = None
            if "pl_prefix" in match:
                pp = match["pl_prefix"]
                try:
                    pl_prefix = (int(pp.get("offset", 0)), bytes.fromhex(pp.get("hex", "")))
                except (AttributeError, ValueError) as exc:
                    _fail(f"{where}: bad pl_prefix: {exc}")
            parsed.append(FlowRule(
                priority=int(rule.get("priority", 0)),
                action=RuleAction(kind=kind, next_hop=next_hop, reason=reason, header=header),
                match_code=(parse_code(match["code"], where) if "code" in match else None),
                match_pl_prefix=pl_prefix,
                match_dst_prefix=_parse_prefix_match(match, "dst_prefix", where),
            ))
        node.flow_rules = tuple(parsed)


def build_topology(doc: dict) -> Topology:
    """Instantiate nodes, links, routes, registries, chains, edge policies
    and flow rules from a scenario document."""
    if not isinstance(doc, dict):
        _fail("scenario document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _fail(f"unknown scenario sections: {sorted(unknown)}")
    nodes = _parse_nodes(doc)
    _parse_links(doc, nodes)
    _parse_routes(doc, nodes)
    chains = _parse_chains(doc, nodes)
    _parse_registries(doc, nodes, chains)
    # Function nodes always run the chaining logic, declared or not.
    for node in nodes.values():
        if node.kind is NodeKind.NFV_FUNCTION and node.registry.lookup(NFV_CODE) is None:
            node.registry.register(make_nfv_handler(chains))
    _parse_edge_policies(doc, nodes, chains)
    _parse_flow_rules(doc, nodes)
    return Topology(nodes=nodes, chains=chains)


# Integer fields of an injected packet spec, with their defaults.
_PACKET_INTS = (("version", 4), ("protocol", 17), ("ttl", 64), ("tos", 0), ("ident", 0),
                ("flags", 0), ("frag_offset", 0), ("traffic_class", 0), ("flow_label", 0))


def parse_injections(doc: dict, topology: Topology) -> List[Injection]:
    injections = []
    for i, spec in enumerate(_get_list(doc, "injections")):
        where = f"injections[{i}]"
        if not isinstance(spec, dict):
            _fail(f"{where}: must be an object")
        node_id = spec.get("node")
        if node_id not in topology.nodes:
            raise DanglingReference(f"{where}: unknown node {node_id!r}")
        time = spec.get("time", 0)
        if not isinstance(time, int) or time < 0:
            _fail(f"{where}: time must be a non-negative integer")
        pkt_spec = spec.get("packet")
        if not isinstance(pkt_spec, dict):
            _fail(f"{where}: missing packet spec")
        try:
            payload = bytes.fromhex(pkt_spec.get("payload_hex", ""))
        except ValueError as exc:
            _fail(f"{where}: bad payload_hex: {exc}")
        ints = {name: _parse_int(pkt_spec.get(name, default), where, name)
                for name, default in _PACKET_INTS}
        try:
            packet = IpPacket(
                src=_parse_address(pkt_spec.get("src", ""), where),
                dst=_parse_address(pkt_spec.get("dst", ""), where),
                payload=payload,
                **ints,
            )
        except GvnError as exc:
            _fail(f"{where}: {exc}")
        if "gvn" in spec and "encap_chain" in spec:
            _fail(f"{where}: 'gvn' and 'encap_chain' are mutually exclusive")
        if "gvn" in spec:
            template = _parse_template(spec["gvn"], f"{where}.gvn")
            try:
                packet = push_gvn(packet, template.build(packet))
            except GvnError as exc:
                _fail(f"{where}: cannot tag injected packet: {exc}")
        elif "encap_chain" in spec:
            spi = spec["encap_chain"]
            if spi not in topology.chains:
                raise DanglingReference(f"{where}: unknown chain spi {spi!r}")
            try:
                packet, _header = nfv_encap(packet, topology.chains[spi])
            except GvnError as exc:
                _fail(f"{where}: cannot enter chain: {exc}")
        injections.append(Injection(node=node_id, time=time, packet=packet))
    return injections


def load_scenario(doc: dict) -> Scenario:
    topology = build_topology(doc)
    injections = parse_injections(doc, topology)
    max_steps = doc.get("max_steps", 10_000)
    if not isinstance(max_steps, int) or max_steps <= 0:
        _fail("max_steps must be a positive integer")
    return Scenario(name=doc.get("name", ""), topology=topology,
                    injections=injections, max_steps=max_steps)

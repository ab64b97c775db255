"""Topology model and scenario-document loading.

A scenario is a JSON object with sections ``nodes``, ``links``, ``routes``,
``registries``, ``chains``, ``edge_policies``, ``flow_rules`` and
``injections``.  Loading is strict: an unknown key at any level, a value of
the wrong JSON type or out of range, and a reference to an undefined node or
chain all raise SchemaError subclasses naming the path of the offending
value, and construction is fully deterministic (section order and list order
are preserved).  Every field is read by one of the typed readers below.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from ipaddress import IPv4Address, IPv4Network, IPv6Address, IPv6Network, ip_network
from math import inf
from typing import Any, Dict, Iterable, Iterator, List, NoReturn, Optional, Tuple, Union

from ..codec import CODE_MAX, GvnHeader, push_gvn
from ..errors import DanglingReference, DuplicateNodeId, GvnError, SchemaError
from ..framework import DropReason, LocalAddresses, PlAction, PlRegistry, ProcessingLogicBinding
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
)
from ..logics.nfv import SPI_MAX
from ..logics.vpn import VNID_MAX
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

    def tag(self, packet: IpPacket) -> Tuple[IpPacket, GvnHeader, str]:
        """Push this header onto untagged ``packet``: the tagged packet, the
        header and a note describing it."""
        header = GvnHeader(next_header=packet.protocol, code=self.code,
                           flags=self.flags, pl_data=self.pl_data)
        return push_gvn(packet, header), header, f"code={self.code:#012x}"


# What tags an untagged packet: a header pushed as is, or entry into a chain.
Tag = Union[HeaderTemplate, ServiceChain]


@dataclass(frozen=True)
class FlowRule:
    """A flow-table entry.  When it matches, its pre-step runs first: push a
    header built from ``push`` onto an untagged packet, or strip the header
    of a tagged one when ``pop``; then ``action`` decides as a logic would."""

    priority: int
    action: PlAction
    push: Optional[HeaderTemplate] = None
    pop: bool = False
    match_code: Optional[int] = None
    match_pl_prefix: Optional[Tuple[int, bytes]] = None
    match_dst_prefix: Optional[PrefixTable] = None


@dataclass(frozen=True)
class EdgeIngressRule:
    tag: Tag
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
    """A node of a topology.  What its kind decides is fixed when it is
    built, as plain attributes the packet path reads: ``legacy`` (no GVN
    support) and ``decrements_ttl``; ``addresses``, given as any collection
    of addresses, become the ``LocalAddresses`` its handlers see.  Only a
    ``gvn_edge`` node may hold an ``edge_policy``.  ``links`` maps each
    neighbor, in sorted order, to the lane name and trace note of the link
    to it."""

    id: str
    kind: NodeKind
    addresses: Iterable[IPAddress]
    routing: RoutingTable = field(default_factory=RoutingTable)
    registry: Optional[PlRegistry] = None
    flow_rules: Tuple[FlowRule, ...] = ()
    edge_policy: Optional[EdgePolicy] = None
    links: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = self.kind
        self.addresses = LocalAddresses(self.addresses)
        self.legacy = kind in (NodeKind.LEGACY_HOST, NodeKind.LEGACY_ROUTER)
        # Only router kinds decrement TTL; edge and function nodes behave as
        # transparent shims so tag round trips stay byte-exact where possible.
        self.decrements_ttl = kind in (NodeKind.LEGACY_ROUTER, NodeKind.GVN_ROUTER)


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


# -- typed readers ---------------------------------------------------------------
#
# Each reader takes a JSON value and ``where``, the path it was found at, and
# returns the typed value or raises SchemaError naming that path.  ``_list``
# applies a reader to every item, passing its extra arguments along.

def _fail(msg: str) -> NoReturn:
    raise SchemaError(msg)


class _Brief(reprlib.Repr):
    """``repr`` cut short, for quoting a value in a message.  A document
    built in Python may hold any value: text of any length, lists nested
    past the recursion limit, or an integer too long for ``repr``."""

    def repr_int(self, x: int, level: int) -> str:
        # 2,000 bits print in fewer digits than the lowest limit Python
        # allows for int-to-text conversion (640).
        if x.bit_length() > 2000:
            return f"<{x.bit_length()}-bit integer>"
        return super().repr_int(x, level)


_brief = _Brief()
_brief.maxstring = _brief.maxother = 60
_show = _brief.repr


def _int(value, where: str, lo: float = -inf, hi: float = inf) -> int:
    """An integer in [lo, hi]; bool and float are refused."""
    if type(value) is not int or not lo <= value <= hi:
        _fail(f"{where}: must be an integer in [{lo}, {hi}], got {_show(value)}")
    return value


def _octet(value, where: str) -> int:
    return _int(value, where, 0, 0xFF)


def _from_text(parse, what: str):
    """A reader of strings that ``parse`` turns into values; its ValueError
    is a SchemaError."""

    def read(value, where: str):
        if type(value) is not str:
            _fail(f"{where}: {what} must be a string, got {_show(value)}")
        try:
            return parse(value)
        except ValueError as exc:
            _fail(f"{where}: bad {what} {_show(value)}: {str(exc)[:100]}")

    return read


def _encodable(text: str) -> str:
    # Refuses lone surrogates, which JSON's \u escapes can express but no
    # trace file or content tag can encode.
    text.encode()
    return text


_text = _from_text(_encodable, "text")
# Only IPv6 text has a colon; picking the family by it spares IPv6 text the
# failed IPv4 parse that ip_address and ip_network try first.
_address = _from_text(lambda text: (IPv6Address if ":" in text else IPv4Address)(text),
                      "address")
_prefix = _from_text(lambda text: (IPv6Network if ":" in text else IPv4Network)(
    text, strict=False), "prefix")
_hex = _from_text(bytes.fromhex, "hex")
_code_text = _from_text(partial(int, base=0), "code")


def _enum(value, where: str, choices: Dict[str, Any]):
    """``choices[value]`` for a string key of ``choices``."""
    if type(value) is not str or value not in choices:
        _fail(f"{where}: must be one of {sorted(choices)}, got {_show(value)}")
    return choices[value]


def _ref(value, where: str, table: dict, what: str):
    """A key of ``table``: a node id (str) or a chain spi (int)."""
    if type(value) not in (str, int) or value not in table:
        raise DanglingReference(f"{where}: unknown {what} {_show(value)}")
    return value


def _obj(value, where: str, keys: Optional[frozenset] = None) -> dict:
    """A JSON object, whose keys must all be in ``keys`` unless it is None."""
    if type(value) is not dict:
        _fail(f"{where}: must be an object, got {type(value).__name__}")
    if keys is not None and not keys.issuperset(value):
        _fail(f"{where}: unknown keys {_show(sorted(set(value) - keys, key=_show))}")
    return value


def _list(value, where: str, read, *args) -> list:
    """``read(item, path, *args)`` for each item of a JSON list."""
    if type(value) is not list:
        _fail(f"{where}: must be a list, got {type(value).__name__}")
    return [read(item, f"{where}[{i}]", *args) for i, item in enumerate(value)]


def _one_of(spec: dict, where: str, first: str, second: str) -> Optional[str]:
    """Whichever of two exclusive keys ``spec`` holds, None if it holds neither."""
    if first not in spec:
        return second if second in spec else None
    if second in spec:
        _fail(f"{where}: {first!r} and {second!r} are mutually exclusive")
    return first


def _code(value, where: str) -> int:
    """A 40-bit code: an integer, a 0x-prefixed string, or a builtin logic name."""
    if type(value) is str:
        value = CODE_NAMES.get(value) or _code_text(value, where)
    return _int(value, where, 0, CODE_MAX)


# -- document sections -------------------------------------------------------------

# The keys each object of a scenario document may hold.  Where the object
# names its kind (a PL spec, a registry entry, a flow-rule action), the keys
# depend on that kind.
_KEYS = {
    "scenario": frozenset({"name", "max_steps", "nodes", "links", "routes", "registries",
                           "chains", "edge_policies", "flow_rules", "injections"}),
    "node": frozenset({"id", "kind", "addresses"}),
    "route": frozenset({"prefix", "next_hop"}),
    "chain": frozenset({"spi", "functions"}),
    "chain function": frozenset({"node", "address"}),
    "icn route": frozenset({"content", "next_hop"}),
    "edge policy": frozenset({"ingress", "pop_egress"}),
    "ingress rule": frozenset({"match", "action"}),
    "ingress match": frozenset({"dst_prefix", "src_prefix", "protocol"}),
    "ingress action": frozenset({"push", "encap_chain"}),
    "flow rule": frozenset({"priority", "match", "action"}),
    "flow match": frozenset({"code", "pl_prefix", "dst_prefix"}),
    "pl prefix": frozenset({"offset", "hex"}),
    "template": frozenset({"code", "flags", "pl_data_hex", "pl"}),
    "injection": frozenset({"node", "time", "packet", "gvn", "encap_chain"}),
    "packet": frozenset({"version", "src", "dst", "protocol", "ttl", "tos", "ident", "flags",
                         "frag_offset", "traffic_class", "flow_label", "payload_hex"}),
}
_PL_KEYS = {"vpn": frozenset({"kind", "vnid"}), "icn": frozenset({"kind", "name"})}
_LOGIC_KEYS = {"nfv": frozenset({"pl"}), "icn": frozenset({"pl", "routes"}),
               "vpn": frozenset({"pl", "allowed"})}
_ACTION_KEYS = {"forward_to": frozenset({"kind", "next_hop"}), "forward_by_ip": frozenset({"kind"}),
                "deliver": frozenset({"kind"}), "drop": frozenset({"kind", "reason"}),
                "push": frozenset({"kind", "header"}), "pop": frozenset({"kind"})}
_NODE_KINDS = {kind.value: kind for kind in NodeKind}
_DROP_REASONS = {reason.value: reason for reason in DropReason}
# Integer fields of an injected packet: (key, default, largest value).
_PACKET_INTS = (("version", 4, 6), ("protocol", 17, 0xFF), ("ttl", 64, 0xFF), ("tos", 0, 0xFF),
                ("ident", 0, 0xFFFF), ("flags", 0, 0x7), ("frag_offset", 0, 0x1FFF),
                ("traffic_class", 0, 0xFF), ("flow_label", 0, 0xFFFFF))


def _pl_data(spec, where: str) -> bytes:
    """PL data from a declarative spec: a vpn vnid or an icn content name."""
    kind = _obj(spec, where).get("kind")
    _obj(spec, where, _enum(kind, f"{where}.kind", _PL_KEYS))
    if kind == "vpn":
        return VpnData(_int(spec.get("vnid", 0), f"{where}.vnid", 0, VNID_MAX)).to_bytes()
    return content_tag(_text(spec.get("name"), f"{where}.name"))


def _template(spec, where: str) -> HeaderTemplate:
    spec = _obj(spec, where, _KEYS["template"])
    code = _code(spec.get("code"), f"{where}.code")
    flags = _octet(spec.get("flags", 0), f"{where}.flags")
    source = _one_of(spec, where, "pl_data_hex", "pl")
    if source == "pl":
        pl_data = _pl_data(spec["pl"], f"{where}.pl")
    else:
        pl_data = b"" if source is None else _hex(spec[source], f"{where}.pl_data_hex")
    try:
        # Every tag pushes this header, with the packet's protocol as next_header.
        GvnHeader(0, code, flags, pl_data)
    except GvnError as exc:
        _fail(f"{where}: template does not build a valid header: {exc}")
    return HeaderTemplate(code=code, flags=flags, pl_data=pl_data)


def _prefix_match(match: dict, key: str, where: str) -> Optional[PrefixTable]:
    if key not in match:
        return None
    return PrefixTable.of_prefixes([_prefix(match[key], f"{where}.{key}")])


def _node(spec, where: str) -> Node:
    spec = _obj(spec, where, _KEYS["node"])
    node_id = _text(spec.get("id"), f"{where}.id")
    if not (node_id and node_id.isprintable()):  # tabs and newlines delimit trace fields
        _fail(f"{where}.id: must be non-empty printable text, got {_show(node_id)}")
    kind = _enum(spec.get("kind"), f"{where}.kind", _NODE_KINDS)
    addresses = _list(spec.get("addresses", []), f"{where}.addresses", _address)
    node = Node(id=node_id, kind=kind, addresses=addresses)
    node.registry = None if node.legacy else PlRegistry()
    return node


def _link(pair, where: str, nodes: Dict[str, Node]) -> List[str]:
    ends = _list(pair, where, _ref, nodes, "node")
    if len(ends) != 2 or ends[0] == ends[1]:
        _fail(f"{where}: must be a list of two different node ids")
    return ends


def _next_hop(value, where: str, nodes: Dict[str, Node], node: Node) -> str:
    """The id of a node that exists and is attached to ``node``."""
    next_hop = _ref(value, where, nodes, "node")
    if next_hop not in node.links:
        _fail(f"{where}: next hop {next_hop!r} is not attached to {node.id!r}")
    return next_hop


def _route(spec, where: str, nodes: Dict[str, Node], node: Node) -> RouteEntry:
    spec = _obj(spec, where, _KEYS["route"])
    network = _prefix(spec.get("prefix"), f"{where}.prefix")
    return RouteEntry(network=network,
                      next_hop=_next_hop(spec.get("next_hop"), f"{where}.next_hop", nodes, node))


def _chain_hop(spec, where: str, nodes: Dict[str, Node]) -> ChainHop:
    spec = _obj(spec, where, _KEYS["chain function"])
    node_id = _ref(spec.get("node"), f"{where}.node", nodes, "node")
    address = _address(spec.get("address"), f"{where}.address")
    if address not in nodes[node_id].addresses:
        _fail(f"{where}: {address} is not an address of {node_id!r}")
    return ChainHop(address=address, node_id=node_id)


def _chain(spec, where: str, nodes: Dict[str, Node]) -> ServiceChain:
    spec = _obj(spec, where, _KEYS["chain"])
    spi = _int(spec.get("spi"), f"{where}.spi", 0, SPI_MAX)
    hops = _list(spec.get("functions"), f"{where}.functions", _chain_hop, nodes)
    if not hops:
        _fail(f"{where}: chain has no functions")
    return ServiceChain(spi=spi, functions=tuple(hops))


def _icn_route(spec, where: str, nodes: Dict[str, Node], node: Node) -> Tuple[bytes, str]:
    spec = _obj(spec, where, _KEYS["icn route"])
    return (content_tag(_text(spec.get("content"), f"{where}.content")),
            _next_hop(spec.get("next_hop"), f"{where}.next_hop", nodes, node))


def _logic(spec, where: str, nodes: Dict[str, Node], node: Node,
           chains: Dict[int, ServiceChain]) -> ProcessingLogicBinding:
    name = _obj(spec, where).get("pl")
    _obj(spec, where, _enum(name, f"{where}.pl", _LOGIC_KEYS))
    if name == "nfv":
        return make_nfv_handler(chains)
    if name == "vpn":
        allowed = _list(spec.get("allowed", []), f"{where}.allowed", _int, 0, VNID_MAX)
        return make_vpn_handler(frozenset(allowed))
    return make_icn_handler(dict(_list(spec.get("routes", []), f"{where}.routes",
                                       _icn_route, nodes, node)))


def _tag(spec: dict, where: str, key: str, chains: Dict[int, ServiceChain]) -> Optional[Tag]:
    """A header template under ``key`` or the chain ``encap_chain`` names,
    exclusively; None if ``spec`` holds neither."""
    step = _one_of(spec, where, key, "encap_chain")
    if step == key:
        return _template(spec[key], f"{where}.{key}")
    if step is None:
        return None
    return chains[_ref(spec[step], f"{where}.encap_chain", chains, "chain spi")]


def _ingress_rule(spec, where: str, chains: Dict[int, ServiceChain]) -> EdgeIngressRule:
    spec = _obj(spec, where, _KEYS["ingress rule"])
    match = _obj(spec.get("match", {}), f"{where}.match", _KEYS["ingress match"])
    action = _obj(spec.get("action"), f"{where}.action", _KEYS["ingress action"])
    tag = _tag(action, f"{where}.action", "push", chains)
    if tag is None:
        _fail(f"{where}.action: needs 'push' or 'encap_chain'")
    return EdgeIngressRule(
        tag=tag,
        match_dst_prefix=_prefix_match(match, "dst_prefix", f"{where}.match"),
        match_src_prefix=_prefix_match(match, "src_prefix", f"{where}.match"),
        match_protocol=(_octet(match["protocol"], f"{where}.match.protocol")
                        if "protocol" in match else None),
    )


def _flow_rule(spec, where: str, nodes: Dict[str, Node], node: Node) -> FlowRule:
    spec = _obj(spec, where, _KEYS["flow rule"])
    match = _obj(spec.get("match", {}), f"{where}.match", _KEYS["flow match"])
    aw = f"{where}.action"
    kind = _obj(spec.get("action"), aw).get("kind")
    action = _obj(spec["action"], aw, _enum(kind, f"{aw}.kind", _ACTION_KEYS))
    if kind == "forward_to":
        decision = PlAction.forward_to(_next_hop(action.get("next_hop"), f"{aw}.next_hop",
                                                 nodes, node))
    elif kind == "deliver":
        decision = PlAction.deliver(note="flow rule")
    elif kind == "drop":
        reason = _enum(action.get("reason", DropReason.POLICY.value), f"{aw}.reason",
                       _DROP_REASONS)
        decision = PlAction.drop(reason, note="flow rule")
    else:  # forward_by_ip, and push and pop after their pre-step
        decision = PlAction.forward_by_ip()
    pl_prefix = None
    if "pl_prefix" in match:
        pw = f"{where}.match.pl_prefix"
        pp = _obj(match["pl_prefix"], pw, _KEYS["pl prefix"])
        pl_prefix = (_int(pp.get("offset", 0), f"{pw}.offset", 0),
                     _hex(pp.get("hex", ""), f"{pw}.hex"))
    return FlowRule(
        priority=_int(spec.get("priority", 0), f"{where}.priority"),
        action=decision,
        push=_template(action.get("header"), f"{aw}.header") if kind == "push" else None,
        pop=kind == "pop",
        match_code=_code(match["code"], f"{where}.match.code") if "code" in match else None,
        match_pl_prefix=pl_prefix,
        match_dst_prefix=_prefix_match(match, "dst_prefix", f"{where}.match"),
    )


def _per_node(doc: dict, section: str, nodes: Dict[str, Node]) -> Iterator[Tuple[Node, Any, str]]:
    """(node, value, path) for each entry of a section keyed by node id."""
    for node_id, value in _obj(doc.get(section, {}), section).items():
        yield nodes[_ref(node_id, section, nodes, "node")], value, f"{section}[{node_id!r}]"


def build_topology(doc: dict) -> Topology:
    """Instantiate nodes, links, routes, registries, chains, edge policies
    and flow rules from a scenario document."""
    _obj(doc, "scenario", _KEYS["scenario"])
    nodes: Dict[str, Node] = {}
    for i, node in enumerate(_list(doc.get("nodes", []), "nodes", _node)):
        if node.id in nodes:
            raise DuplicateNodeId(f"nodes[{i}]: node {node.id!r} defined twice")
        nodes[node.id] = node
    if not nodes:
        _fail("scenario defines no nodes")

    adjacency: Dict[str, set] = {node_id: set() for node_id in nodes}
    for i, (a, b) in enumerate(_list(doc.get("links", []), "links", _link, nodes)):
        if b in adjacency[a]:
            _fail(f"links[{i}]: duplicate link {a!r}-{b!r}")
        adjacency[a].add(b)
        adjacency[b].add(a)
    for node_id, adjacent in adjacency.items():
        nodes[node_id].links = {nb: (f"{node_id}>{nb}", f"to={nb}") for nb in sorted(adjacent)}

    for node, entries, where in _per_node(doc, "routes", nodes):
        node.routing = RoutingTable(_list(entries, where, _route, nodes, node))
    # A node without routes (a single-link setup) gets a host route to each
    # address of each neighbor; an address two neighbors own goes to the
    # lowest-sorting one, by the routing table's tie rule.
    for node in nodes.values():
        if not node.routing.entries:
            node.routing = RoutingTable([RouteEntry(ip_network(address), neighbor)
                                         for neighbor in node.links
                                         for address in nodes[neighbor].addresses])

    chains: Dict[int, ServiceChain] = {}
    for chain in _list(doc.get("chains", []), "chains", _chain, nodes):
        if chain.spi in chains:
            _fail(f"chains: duplicate spi {chain.spi}")
        chains[chain.spi] = chain

    for node, entries, where in _per_node(doc, "registries", nodes):
        if node.legacy:
            _fail(f"{where}: legacy nodes cannot hold logics")
        for binding in _list(entries, where, _logic, nodes, node, chains):
            if node.registry.lookup(binding.code) is not None:
                _fail(f"{where}: logic {binding.name!r} listed twice")
            node.registry.register(binding)
    # Function nodes always run the chaining logic, declared or not.
    for node in nodes.values():
        if node.kind is NodeKind.NFV_FUNCTION and node.registry.lookup(NFV_CODE) is None:
            node.registry.register(make_nfv_handler(chains))

    for node, spec, where in _per_node(doc, "edge_policies", nodes):
        if node.kind is not NodeKind.GVN_EDGE:
            _fail(f"{where}: node is not an edge node")
        spec = _obj(spec, where, _KEYS["edge policy"])
        node.edge_policy = EdgePolicy(
            ingress=tuple(_list(spec.get("ingress", []), f"{where}.ingress",
                                _ingress_rule, chains)),
            pop_egress=PrefixTable.of_prefixes(
                _list(spec.get("pop_egress", []), f"{where}.pop_egress", _prefix)))

    for node, rules, where in _per_node(doc, "flow_rules", nodes):
        if node.legacy:
            _fail(f"{where}: legacy nodes have no flow tables")
        node.flow_rules = tuple(_list(rules, where, _flow_rule, nodes, node))
    return Topology(nodes=nodes, chains=chains)


def _memo_address(fields: dict, key: str, where: str, parsed: Dict[str, IPAddress]) -> IPAddress:
    """``_address`` of ``fields[key]``, parsed once per distinct text in ``parsed``."""
    text = fields.get(key)
    address = parsed.get(text) if type(text) is str else None
    if address is None:
        address = parsed[text] = _address(text, f"{where}.{key}")
    return address


def _injection(spec, where: str, topology: Topology,
               addresses: Dict[str, IPAddress]) -> Injection:
    spec = _obj(spec, where, _KEYS["injection"])
    node_id = _ref(spec.get("node"), f"{where}.node", topology.nodes, "node")
    time = _int(spec.get("time", 0), f"{where}.time", 0)
    pw = f"{where}.packet"
    fields = _obj(spec.get("packet"), pw, _KEYS["packet"])
    ints = {key: _int(fields.get(key, default), f"{pw}.{key}", 0, hi)
            for key, default, hi in _PACKET_INTS}
    src = _memo_address(fields, "src", pw, addresses)
    dst = _memo_address(fields, "dst", pw, addresses)
    payload = _hex(fields.get("payload_hex", ""), f"{pw}.payload_hex")
    tag = _tag(spec, where, "gvn", topology.chains)
    try:
        packet = IpPacket(src=src, dst=dst, payload=payload, **ints)
        if tag is not None:
            packet = tag.tag(packet)[0]
    except GvnError as exc:
        _fail(f"{where}: {exc}")
    return Injection(node=node_id, time=time, packet=packet)


def parse_injections(doc: dict, topology: Topology) -> List[Injection]:
    # Injections share few distinct addresses; each text is parsed once per
    # call, and equal addresses share one object.
    return _list(_obj(doc, "scenario").get("injections", []), "injections",
                 _injection, topology, {})


def load_scenario(doc: dict) -> Scenario:
    topology = build_topology(doc)
    injections = parse_injections(doc, topology)
    return Scenario(name=_text(doc.get("name", ""), "name"), topology=topology,
                    injections=injections,
                    max_steps=_int(doc.get("max_steps", 10_000), "max_steps", 1))

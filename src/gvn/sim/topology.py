"""Topology model and scenario-document loading.

A scenario is a JSON object with sections ``nodes``, ``links``, ``routes``,
``registries``, ``chains``, ``edge_policies``, ``flow_rules`` and
``injections``.  Loading is strict: an unknown key at any level, a value of
the wrong JSON type or out of range, and a reference to an undefined node or
chain all raise SchemaError subclasses naming the path of the offending
value, and construction is fully deterministic (section order and list order
are preserved).  Every value is read by one call of one of the typed readers
below.  A value's path text is joined only to report a refused value, or
once for an object or list item whose own values are read in turn.
"""

from __future__ import annotations

import reprlib
from _socket import AF_INET, AF_INET6, inet_ntop, inet_pton  # socket's own import costs ms
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from ipaddress import IPv4Address, IPv4Network, IPv6Address, IPv6Network, ip_network
from math import inf
from types import SimpleNamespace
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, NoReturn, Optional, Tuple, Union

from ..codec import CODE_MAX, GvnHeader, push_gvn
from ..errors import DanglingReference, DuplicateNodeId, GvnError, SchemaError
from ..framework import DropReason, LocalAddresses, PlAction, PlRegistry, ProcessingLogicBinding
from ..logics import (
    ICN_CODE,
    NFV_CODE,
    OPAQUE_DEMO_CODE,
    VPN_CODE,
    ServiceChain,
    VpnData,
    content_tag,
    make_icn_handler,
    make_nfv_handler,
    make_vpn_handler,
)
from ..logics.nfv import SI_MAX, SPI_MAX
from ..logics.vpn import VNID_MAX
from ..packet import IPAddress, IpPacket, _build, _address as _address_of

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
    (max_prefixlen - prefixlen)``.  ``lookup`` reads the address's integer
    once and probes the lengths present for its type, longest
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
        # Per address type (``version`` is a property): (shift, group), longest first.
        self._probes: Dict[type, List[Tuple[int, dict]]] = {IPv4Address: [], IPv6Address: []}
        for version, length in sorted(groups, reverse=True):
            width, family = (32, IPv4Address) if version == 4 else (128, IPv6Address)
            self._probes[family].append((width - length, groups[version, length]))

    @classmethod
    def of_prefixes(cls, networks: Iterable[IPNetwork]) -> "PrefixTable":
        """A prefix set: every network maps to True."""
        return cls((network, True) for network in networks)

    def lookup(self, addr: IPAddress) -> Any:
        """The value of the longest prefix covering ``addr``, None if none
        does (an address of the other family matches nothing)."""
        bits = addr._ip  # int(addr) is a Python __int__ call
        for shift, group in self._probes[type(addr)]:
            value = group.get(bits >> shift)
            if value is not None:
                return value
        return None


class RoutingTable(PrefixTable):
    """A node's routes: the longest matching prefix wins, and a prefix
    listed more than once goes to its lexicographically lowest next hop.
    ``entries`` are the routes the table was built from, as a tuple."""

    def __init__(self, entries: Iterable[RouteEntry] = ()) -> None:
        self.entries: Tuple[RouteEntry, ...] = tuple(entries)
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

    def __post_init__(self) -> None:
        # Checked once, here: a tag only sets next_header, to the packet's protocol.
        GvnHeader(0, self.code, self.flags, self.pl_data)
        object.__setattr__(self, "_note", f"code={self.code:#012x}")

    def tag(self, packet: IpPacket) -> Tuple[IpPacket, GvnHeader, str]:
        """Push this header onto untagged ``packet``: the tagged packet, the
        header and a note describing it."""
        header = _build(GvnHeader, (packet.protocol, self.code, self.flags, self.pl_data))
        return push_gvn(packet, header), header, self._note


# What tags an untagged packet: a header pushed as is, or entry into a chain.
Tag = Union[HeaderTemplate, ServiceChain]


@dataclass(frozen=True)
class FlowRule:
    """A rule of a node's flow table or of its edge ingress list.
    When it is chosen, its pre-step runs first: push ``push`` onto an
    untagged packet, or strip the header of a tagged one when ``pop``; then
    ``action`` decides as a logic would.  An ingress rule is a ``push``
    rule that forwards by IP; only its selection differs (``edge_ingress``)."""

    priority: int
    action: PlAction
    push: Optional[Tag] = None
    pop: bool = False
    match_code: Optional[int] = None
    match_pl_prefix: Optional[Tuple[int, bytes]] = None
    match_dst_prefix: Optional[PrefixTable] = None
    match_src_prefix: Optional[PrefixTable] = None
    match_protocol: Optional[int] = None

    def matches(self, packet: IpPacket, header: Optional[GvnHeader] = None) -> bool:
        """Whether every present match field matches ``packet``, whose
        parsed GVN header is ``header`` (None when untagged or malformed)."""
        if self.match_protocol is not None and packet.protocol != self.match_protocol:
            return False
        if self.match_dst_prefix is not None and self.match_dst_prefix.lookup(packet.dst) is None:
            return False
        if self.match_src_prefix is not None and self.match_src_prefix.lookup(packet.src) is None:
            return False
        if self.match_code is not None and (header is None or header.code != self.match_code):
            return False
        if self.match_pl_prefix is not None:
            offset, expected = self.match_pl_prefix
            return header is not None and header.pl_data[offset:offset + len(expected)] == expected
        return True


@dataclass(frozen=True, eq=False)
class Node:
    """A node of a topology, immutable once built.  Its kind decides the
    plain attributes the packet path reads: ``registry``, None exactly for
    the legacy kinds, which lack GVN support (a capable node given none gets
    an empty one), and ``decrements_ttl``.  ``addresses`` become the
    ``LocalAddresses`` its handlers see.  A ``gvn_edge`` node's ``ingress``
    rules tag untagged packets, and it pops the header of a packet it
    forwards toward ``pop_egress``.  ``links`` maps each neighbor, in sorted
    order, to the lane and trace note of the link to it.  ``forwarding``,
    filled as runs route packets, maps each destination's trace text to the
    node's decision for it; a copy or an unpickled node starts it empty.
    Only the registry may change: it may gain logics."""

    id: str
    kind: NodeKind
    addresses: Iterable[IPAddress]
    routing: RoutingTable = field(default_factory=RoutingTable)
    registry: Optional[PlRegistry] = None
    flow_rules: Tuple[FlowRule, ...] = ()
    ingress: Tuple[FlowRule, ...] = ()
    pop_egress: Optional[PrefixTable] = None
    links: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = self.kind
        fix = partial(object.__setattr__, self)
        fix("addresses", LocalAddresses(self.addresses))
        fix("registry", None if kind in _LEGACY_KINDS
            else PlRegistry() if self.registry is None else self.registry)
        # Only router kinds decrement TTL; edge and function nodes behave as
        # transparent shims so tag round trips stay byte-exact where possible.
        fix("decrements_ttl", kind in (NodeKind.LEGACY_ROUTER, NodeKind.GVN_ROUTER))
        fix("forwarding", {})

    def __getstate__(self) -> dict:
        # The cache is derived, holds other nodes, and may be large.
        return {**self.__dict__, "forwarding": {}}


def address_key(address: IPAddress) -> tuple:
    """What ipaddress compares: the integer, the family and the IPv6 scope id."""
    return address._ip, type(address), getattr(address, "_scope_id", None)


class AddressText(dict):
    """The trace text of every address ``read`` parsed, keyed by its
    ``address_key``.  ``parsed`` holds one object per distinct text.
    ``text`` is the one place a run gets an address's trace text."""

    def __init__(self) -> None:
        super().__init__()
        self.parsed: Dict[str, IPAddress] = {}

    def read(self, text, where: str, key: str = "") -> IPAddress:
        """``_address(text, where, key)``, parsed once per distinct text."""
        address = self.parsed.get(text) if type(text) is str else None
        if address is None:
            address, trace = _address(text, where, key)
            self.parsed[text] = address
            self[address_key(address)] = trace
        return address

    def text(self, address: IPAddress) -> str:
        """The trace text of ``address``: the loaded text of its value, else
        its str, refused with ValueError when it is not printable (a
        hand-built scope id may hold a tab or a newline)."""
        # address_key, inline: a run calls this for every address it meets.
        text = self.get((address._ip, type(address), getattr(address, "_scope_id", None)))
        if text is None:
            text = str(address)
            if not text.isprintable():
                raise ValueError(f"address {text!r} has no printable trace text")
        return text


@dataclass
class Topology:
    """Nodes and chains, and ``address_text``, the trace text of every
    address the topology loaded: its nodes' and chain hops', and its
    injections', which each ``parse_injections`` adds.  A run reads it."""

    nodes: Dict[str, Node]
    chains: Dict[int, ServiceChain]
    address_text: AddressText = field(default_factory=AddressText, repr=False)


class Injection(NamedTuple):
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
# Each reader takes a JSON value, ``where`` and ``key``, and returns the typed
# value or raises SchemaError naming its path, ``where + key``: its holder's
# path and its key there (".spi"), or its own path and "".  ``_list`` applies
# a reader to every item, with the item's path, passing its extra arguments.

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


def _int(value, where: str, key: str = "", lo: float = -inf, hi: float = inf) -> int:
    """An integer in [lo, hi]; bool and float are refused."""
    if type(value) is not int or not lo <= value <= hi:
        _fail(f"{where}{key}: must be an integer in [{lo}, {hi}], got {_show(value)}")
    return value


def _octet(value, where: str, key: str) -> int:
    return _int(value, where, key, 0, 0xFF)


def _from_text(parse, what: str):
    """A reader of strings that ``parse`` turns into values; its ValueError
    is a SchemaError."""

    def read(value, where: str, key: str = ""):
        if type(value) is not str:
            _fail(f"{where}{key}: {what} must be a string, got {_show(value)}")
        try:
            return parse(value)
        except ValueError as exc:
            _fail(f"{where}{key}: bad {what} {_show(value)}: {str(exc)[:100]}")

    return read


def _encodable(text: str) -> str:
    # Refuses lone surrogates, which JSON's \u escapes can express but no
    # trace file or content tag can encode.
    text.encode()
    return text


# By whether text has a colon (only IPv6 text has one): the libc family, the
# address and network types, and the decimal text of each prefix length.
_FAMILIES = {False: (AF_INET, IPv4Address, IPv4Network, frozenset(map(str, range(33)))),
             True: (AF_INET6, IPv6Address, IPv6Network, frozenset(map(str, range(129))))}


def _family(text: str) -> tuple:
    if "%" in text:  # a scope id may hold a tab or a newline, which delimit trace fields
        raise ValueError("scope ids are not supported")
    return _FAMILIES[":" in text]


def _canonical(family: int, text: str) -> Optional[int]:
    """The integer of ``text`` if libc writes it back unchanged (RFC 5952 form
    for IPv6), else None: only text that ipaddress reads, to the same value."""
    try:
        packed = inet_pton(family, text)
    except (OSError, ValueError):  # ValueError: a NUL or a lone surrogate
        return None
    return int.from_bytes(packed, "big") if inet_ntop(family, packed) == text else None


def _parse_address(text: str) -> Tuple[IPAddress, str]:
    """The address ``text`` names and its trace text: ``text`` if it is IPv4
    (accepted only without leading zeros) or IPv6 that libc writes back as
    is and holds no dotted quad (ipaddress may print that in hex), else its str."""
    family, kind, _, _ = _family(text)
    value = _canonical(family, text)
    address = kind(text) if value is None else _address_of(kind, value)
    own = kind is IPv4Address or value is not None and "." not in text
    return address, text if own else str(address)


def _parse_network(text: str) -> IPNetwork:
    family, _, kind, lengths = _family(text)
    address, _, length = text.partition("/")
    value = _canonical(family, address) if length in lengths else None
    return kind(text, strict=False) if value is None else kind((value, int(length)), strict=False)


def _hex_bytes(text: str) -> bytes:
    data = bytes.fromhex(text)
    if 2 * len(data) != len(text):  # fromhex skips whitespace
        raise ValueError("only hex digits are allowed")
    return data


def _code_number(text: str) -> int:
    number = int(text, 0)
    # int also takes whitespace, a sign, underscores and non-ASCII digits.
    if not (text.isascii() and text.isalnum()):
        raise ValueError("only ASCII letters and digits are allowed")
    return number


_text = _from_text(_encodable, "text")
# libc reads canonical address text and ipaddress the rest, so every text is
# accepted or refused, with its message, as by ipaddress alone.
_address = _from_text(_parse_address, "address")
_prefix = _from_text(_parse_network, "prefix")
_prefix_set = _from_text(lambda text: PrefixTable.of_prefixes([_parse_network(text)]), "prefix")
_hex = _from_text(_hex_bytes, "hex")
_code_text = _from_text(_code_number, "code")


def _enum(value, where: str, key: str, choices: Dict[str, Any]):
    """``choices[value]`` for a string key of ``choices``."""
    if type(value) is not str or value not in choices:
        _fail(f"{where}{key}: must be one of {sorted(choices)}, got {_show(value)}")
    return choices[value]


def _ref(value, where: str, key: str, table: dict, what: str):
    """A key of ``table``: a node id (str) or a chain spi (int)."""
    if type(value) not in (str, int) or value not in table:
        raise DanglingReference(f"{where}{key}: unknown {what} {_show(value)}")
    return value


def _obj(value, where: str, key: str = "", keys: Optional[frozenset] = None) -> dict:
    """A JSON object, whose keys must all be in ``keys`` unless it is None."""
    if type(value) is not dict:
        _fail(f"{where}{key}: must be an object, got {type(value).__name__}")
    if keys is not None and not keys.issuperset(value):
        _fail(f"{where}{key}: unknown keys {_show(sorted(set(value) - keys, key=_show))}")
    return value


def _kinded(value, where: str, tag: str, kinds: Dict[str, frozenset]) -> Tuple[str, dict]:
    """The kind, a key of ``kinds``, a JSON object names under ``tag``, and the object."""
    kind = _obj(value, where).get(tag)
    return kind, _obj(value, where, keys=_enum(kind, where, f".{tag}", kinds))


def _list(value, where: str, read, *args) -> list:
    """``read(item, path, *args)`` for each item of a JSON list, at its own path."""
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


def _code(value, where: str, key: str) -> int:
    """A 40-bit code: an integer, text ``_code_text`` reads, or a builtin logic name."""
    if type(value) is str:
        value = CODE_NAMES.get(value) or _code_text(value, where, key)
    return _int(value, where, key, 0, CODE_MAX)


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
_LEGACY_KINDS = (NodeKind.LEGACY_HOST, NodeKind.LEGACY_ROUTER)
_DROP_REASONS = {reason.value: reason for reason in DropReason}
# Integer fields of an injected packet: (key, path in an injection, default, largest value).
_PACKET_INTS = tuple((key, f".packet.{key}", default, hi) for key, default, hi in (
    ("version", 4, 6), ("protocol", 17, 0xFF), ("ttl", 64, 0xFF), ("tos", 0, 0xFF),
    ("ident", 0, 0xFFFF), ("flags", 0, 0x7), ("frag_offset", 0, 0x1FFF),
    ("traffic_class", 0, 0xFF), ("flow_label", 0, 0xFFFFF)))


def _pl_data(spec, where: str) -> bytes:
    """PL data from a declarative spec: a vpn vnid or an icn content name."""
    kind, spec = _kinded(spec, where, "kind", _PL_KEYS)
    if kind == "vpn":
        return VpnData(_int(spec.get("vnid", 0), where, ".vnid", 0, VNID_MAX)).to_bytes()
    return content_tag(_text(spec.get("name"), where, ".name"))


def _template(spec, where: str, make=HeaderTemplate):
    """``make(code, flags, pl_data)`` of a header template; its GvnError is a SchemaError."""
    spec = _obj(spec, where, keys=_KEYS["template"])
    code = _code(spec.get("code"), where, ".code")
    flags = _octet(spec.get("flags", 0), where, ".flags")
    source = _one_of(spec, where, "pl_data_hex", "pl")
    if source == "pl":
        pl_data = _pl_data(spec["pl"], f"{where}.pl")
    else:
        pl_data = b"" if source is None else _hex(spec[source], where, ".pl_data_hex")
    try:
        return make(code, flags, pl_data)
    except GvnError as exc:
        _fail(f"{where}: template does not build a valid header: {exc}")


def _pl_prefix(spec, where: str, key: str) -> Tuple[int, bytes]:
    where += key
    spec = _obj(spec, where, keys=_KEYS["pl prefix"])
    return (_int(spec.get("offset", 0), where, ".offset", 0),
            _hex(spec.get("hex", ""), where, ".hex"))


# The reader of each key a rule's match object may hold, given the object's path and the key.
_MATCH_READERS = {"dst_prefix": _prefix_set, "src_prefix": _prefix_set, "protocol": _octet,
                  "code": _code, "pl_prefix": _pl_prefix}


def _match(spec, where: str, keys: frozenset) -> Dict[str, Any]:
    """The ``FlowRule`` match fields of a rule's ``match`` object, whose
    keys must be in ``keys``, read in the object's order."""
    return {f"match_{key}": _MATCH_READERS[key](value, where, f".{key}")
            for key, value in _obj(spec, where, keys=keys).items()}


# A node's Node arguments, gathered section by section; ``links`` (its
# neighbors) and ``routing`` (its route entries) take their final form last.
_Draft = SimpleNamespace


def _node(spec, where: str, table: AddressText) -> _Draft:
    spec = _obj(spec, where, keys=_KEYS["node"])
    node_id = _text(spec.get("id"), where, ".id")
    if not (node_id and node_id.isprintable()):  # tabs and newlines delimit trace fields
        _fail(f"{where}.id: must be non-empty printable text, got {_show(node_id)}")
    kind = _enum(spec.get("kind"), where, ".kind", _NODE_KINDS)
    addresses = _list(spec.get("addresses", []), f"{where}.addresses", table.read)
    return _Draft(id=node_id, kind=kind, addresses=addresses, routing=[], links={},
                  registry=PlRegistry())


def _link(pair, where: str, nodes: Dict[str, _Draft]) -> List[str]:
    ends = _list(pair, where, _ref, "", nodes, "node")
    if len(ends) != 2 or ends[0] == ends[1]:
        _fail(f"{where}: must be a list of two different node ids")
    return ends


def _next_hop(value, where: str, key: str, nodes: Dict[str, _Draft], node: _Draft) -> str:
    """The id of a node that exists and is attached to ``node``."""
    next_hop = _ref(value, where, key, nodes, "node")
    if next_hop not in node.links:
        _fail(f"{where}{key}: next hop {next_hop!r} is not attached to {node.id!r}")
    return next_hop


def _route(spec, where: str, nodes: Dict[str, _Draft], node: _Draft) -> RouteEntry:
    spec = _obj(spec, where, keys=_KEYS["route"])
    return RouteEntry(network=_prefix(spec.get("prefix"), where, ".prefix"),
                      next_hop=_next_hop(spec.get("next_hop"), where, ".next_hop", nodes, node))


def _chain_hop(spec, where: str, nodes: Dict[str, _Draft], table: AddressText) -> tuple:
    """A function's node and address, which must be one of the node's."""
    spec = _obj(spec, where, keys=_KEYS["chain function"])
    node_id = _ref(spec.get("node"), where, ".node", nodes, "node")
    address = table.read(spec.get("address"), where, ".address")
    if address not in nodes[node_id].addresses:
        _fail(f"{where}: {address} is not an address of {node_id!r}")
    return node_id, address


def _chain(spec, where: str, nodes: Dict[str, _Draft], table: AddressText) -> ServiceChain:
    spec = _obj(spec, where, keys=_KEYS["chain"])
    spi = _int(spec.get("spi"), where, ".spi", 0, SPI_MAX)
    hops = _list(spec.get("functions"), f"{where}.functions", _chain_hop, nodes, table)
    if not 1 <= len(hops) <= SI_MAX:  # si, the count of functions to visit, is one octet
        _fail(f"{where}.functions: a chain has 1 to {SI_MAX} functions, got {len(hops)}")
    for i in range(1, len(hops)):  # a node delivers a tagged packet addressed to it
        if hops[i][0] == hops[i - 1][0]:
            _fail(f"{where}.functions[{i}]: node {hops[i][0]!r} also runs the previous function")
    return ServiceChain(spi=spi, functions=tuple(address for _, address in hops))


def _icn_route(spec, where: str, nodes: Dict[str, _Draft], node: _Draft) -> Tuple[bytes, str]:
    spec = _obj(spec, where, keys=_KEYS["icn route"])
    return (content_tag(_text(spec.get("content"), where, ".content")),
            _next_hop(spec.get("next_hop"), where, ".next_hop", nodes, node))


def _logic(spec, where: str, nodes: Dict[str, _Draft], node: _Draft,
           chains: Dict[int, ServiceChain]) -> ProcessingLogicBinding:
    name, spec = _kinded(spec, where, "pl", _LOGIC_KEYS)
    if name == "nfv":
        return make_nfv_handler(chains)
    if name == "vpn":
        allowed = _list(spec.get("allowed", []), f"{where}.allowed", _int, "", 0, VNID_MAX)
        return make_vpn_handler(frozenset(allowed))
    return make_icn_handler(dict(_list(spec.get("routes", []), f"{where}.routes",
                                       _icn_route, nodes, node)))


def _tag(spec: dict, where: str, key: str, chains: Dict[int, ServiceChain], make=HeaderTemplate):
    """``make`` of the header template under ``key`` (see ``_template``) or
    the chain ``encap_chain`` names, exclusively; None if ``spec`` holds neither."""
    step = _one_of(spec, where, key, "encap_chain")
    if step == key:
        return _template(spec[key], f"{where}.{key}", make)
    if step is None:
        return None
    return chains[_ref(spec[step], where, ".encap_chain", chains, "chain spi")]


def _ingress_rule(spec, where: str, chains: Dict[int, ServiceChain]) -> FlowRule:
    spec = _obj(spec, where, keys=_KEYS["ingress rule"])
    match = _match(spec.get("match", {}), f"{where}.match", _KEYS["ingress match"])
    action = _obj(spec.get("action"), where, ".action", _KEYS["ingress action"])
    tag = _tag(action, f"{where}.action", "push", chains)
    if tag is None:
        _fail(f"{where}.action: needs 'push' or 'encap_chain'")
    return FlowRule(priority=0, action=PlAction.forward_by_ip(), push=tag, **match)


def _flow_rule(spec, where: str, nodes: Dict[str, _Draft], node: _Draft) -> FlowRule:
    spec = _obj(spec, where, keys=_KEYS["flow rule"])
    match = _match(spec.get("match", {}), f"{where}.match", _KEYS["flow match"])
    aw = f"{where}.action"
    kind, action = _kinded(spec.get("action"), aw, "kind", _ACTION_KEYS)
    if kind == "forward_to":
        decision = PlAction.forward_to(_next_hop(action.get("next_hop"), aw, ".next_hop",
                                                 nodes, node))
    elif kind == "deliver":
        decision = PlAction.deliver(note="flow rule")
    elif kind == "drop":
        reason = _enum(action.get("reason", DropReason.POLICY.value), aw, ".reason",
                       _DROP_REASONS)
        decision = PlAction.drop(reason, note="flow rule")
    else:  # forward_by_ip, and push and pop after their pre-step
        decision = PlAction.forward_by_ip()
    return FlowRule(
        priority=_int(spec.get("priority", 0), where, ".priority"),
        action=decision,
        push=_template(action.get("header"), f"{aw}.header") if kind == "push" else None,
        pop=kind == "pop",
        **match,
    )


def _per_node(doc: dict, section: str, nodes: Dict[str, _Draft]) -> Iterator[tuple]:
    """(node, value, path) for each entry of a section keyed by node id."""
    for node_id, value in _obj(doc.get(section, {}), section).items():
        yield nodes[_ref(node_id, section, "", nodes, "node")], value, f"{section}[{node_id!r}]"


def build_topology(doc: dict) -> Topology:
    """Instantiate nodes, links, routes, registries, chains, edge policies
    and flow rules from a scenario document; each Node is built once, last."""
    _obj(doc, "scenario", keys=_KEYS["scenario"])
    table = AddressText()
    nodes: Dict[str, _Draft] = {}
    for i, node in enumerate(_list(doc.get("nodes", []), "nodes", _node, table)):
        if node.id in nodes:
            raise DuplicateNodeId(f"nodes[{i}]: node {node.id!r} defined twice")
        nodes[node.id] = node
    if not nodes:
        _fail("scenario defines no nodes")

    for i, (a, b) in enumerate(_list(doc.get("links", []), "links", _link, nodes)):
        if b in nodes[a].links:
            _fail(f"links[{i}]: duplicate link {a!r}-{b!r}")
        nodes[a].links[b] = nodes[b].links[a] = None

    for node, entries, where in _per_node(doc, "routes", nodes):
        node.routing = _list(entries, where, _route, nodes, node)

    chains: Dict[int, ServiceChain] = {}
    for chain in _list(doc.get("chains", []), "chains", _chain, nodes, table):
        if chain.spi in chains:
            _fail(f"chains: duplicate spi {chain.spi}")
        chains[chain.spi] = chain

    for node, entries, where in _per_node(doc, "registries", nodes):
        if node.kind in _LEGACY_KINDS:
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
        spec = _obj(spec, where, keys=_KEYS["edge policy"])
        node.ingress = tuple(_list(spec.get("ingress", []), f"{where}.ingress",
                                   _ingress_rule, chains))
        pops = _list(spec.get("pop_egress", []), f"{where}.pop_egress", _prefix)
        if pops:
            node.pop_egress = PrefixTable.of_prefixes(pops)

    for node, rules, where in _per_node(doc, "flow_rules", nodes):
        if node.kind in _LEGACY_KINDS:
            _fail(f"{where}: legacy nodes have no flow tables")
        node.flow_rules = tuple(_list(rules, where, _flow_rule, nodes, node))

    for node in nodes.values():
        node.links = {nb: (f"{node.id}>{nb}", f"to={nb}") for nb in sorted(node.links)}
        # A node without routes (a single-link setup) gets a host route to
        # each address of each neighbor; an address two neighbors own goes to
        # the lowest-sorting one, by the routing table's tie rule.
        node.routing = RoutingTable(node.routing or [RouteEntry(ip_network(address), neighbor)
                                                     for neighbor in node.links
                                                     for address in nodes[neighbor].addresses])
    return Topology(nodes={node.id: Node(**vars(node)) for node in nodes.values()},
                    chains=chains, address_text=table)


def _injection(spec, where: str, topology: Topology) -> Injection:
    # The read order decides which of several bad values is reported: node,
    # time, packet, its integers, src, dst, payload_hex, then the tag.
    spec = _obj(spec, where, keys=_KEYS["injection"])
    node_id = _ref(spec.get("node"), where, ".node", topology.nodes, "node")
    time = _int(spec.get("time", 0), where, ".time", 0)
    fields = _obj(spec.get("packet"), where, ".packet", _KEYS["packet"])
    ints = {}
    for key, path, default, hi in _PACKET_INTS:
        ints[key] = _int(fields.get(key, default), where, path, 0, hi)
    src = topology.address_text.read(fields.get("src"), where, ".packet.src")
    dst = topology.address_text.read(fields.get("dst"), where, ".packet.dst")
    payload = _hex(fields.get("payload_hex", ""), where, ".packet.payload_hex")
    # A gvn tag is read as the header to push, which checks itself before the packet is built.
    tag = _tag(spec, where, "gvn", topology.chains, partial(GvnHeader, ints["protocol"]))
    try:
        packet = IpPacket(src=src, dst=dst, payload=payload, **ints)
        if tag is not None:
            packet = push_gvn(packet, tag) if type(tag) is GvnHeader else tag.tag(packet)[0]
    except GvnError as exc:
        _fail(f"{where}: {exc}")
    return Injection(node_id, time, packet)


def parse_injections(doc: dict, topology: Topology) -> List[Injection]:
    return _list(_obj(doc, "scenario").get("injections", []), "injections",
                 _injection, topology)


def load_scenario(doc: dict) -> Scenario:
    topology = build_topology(doc)
    injections = parse_injections(doc, topology)
    return Scenario(name=_text(doc.get("name", ""), "name"), topology=topology,
                    injections=injections,
                    max_steps=_int(doc.get("max_steps", 10_000), "max_steps", lo=1))

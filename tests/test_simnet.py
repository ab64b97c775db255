"""Simulator: topology building, per-kind processing, rules, determinism."""

import copy
import dataclasses
import importlib
import json
from ipaddress import IPv4Address, IPv6Address, ip_address, ip_network
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvn import errors
from gvn.codec import GVN_PROTOCOL, GvnHeader, classify, push_gvn
from gvn.framework import DropReason, PlAction, ProcessingLogicBinding
from gvn.logics import VPN_CODE, NfvChainData, content_tag
from gvn.packet import IpPacket, make_packet
from gvn.sim import build_topology, engine, flow_match, load_scenario, run
from gvn.sim.topology import (
    FlowRule,
    Injection,
    PrefixTable,
    RouteEntry,
    RoutingTable,
)
from gvn.sim.trace import TraceRecord, format_text

from .oracles import lpm_scan, trace_line

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def three_node_doc():
    return {
        "nodes": [
            {"id": "h1", "kind": "legacy_host", "addresses": ["10.0.0.1"]},
            {"id": "r1", "kind": "legacy_router", "addresses": ["10.0.0.254"]},
            {"id": "h2", "kind": "legacy_host", "addresses": ["10.0.1.1"]},
        ],
        "links": [["h1", "r1"], ["r1", "h2"]],
        "routes": {
            "h1": [{"prefix": "0.0.0.0/0", "next_hop": "r1"}],
            "r1": [
                {"prefix": "10.0.1.0/24", "next_hop": "h2"},
                {"prefix": "10.0.0.0/24", "next_hop": "h1"},
            ],
            "h2": [{"prefix": "0.0.0.0/0", "next_hop": "r1"}],
        },
        "injections": [
            {"node": "h1", "time": 0,
             "packet": {"version": 4, "src": "10.0.0.1", "dst": "10.0.1.1",
                        "protocol": 17, "ttl": 64, "payload_hex": "cafe"}},
        ],
    }


# -- construction ---------------------------------------------------------------

def test_build_smallest_useful_graph():
    topology = build_topology(three_node_doc())
    assert set(topology.nodes) == {"h1", "r1", "h2"}
    assert tuple(topology.nodes["r1"].links) == ("h1", "h2")


def test_route_to_unknown_node():
    doc = three_node_doc()
    doc["routes"]["r1"].append({"prefix": "10.0.2.0/24", "next_hop": "ghost"})
    with pytest.raises(errors.DanglingReference):
        build_topology(doc)


def test_route_to_unattached_node():
    doc = three_node_doc()
    doc["routes"]["h1"].append({"prefix": "10.0.1.0/24", "next_hop": "h2"})
    with pytest.raises(errors.SchemaError):
        build_topology(doc)


def test_duplicate_node_id():
    doc = three_node_doc()
    doc["nodes"].append({"id": "h1", "kind": "legacy_host", "addresses": []})
    with pytest.raises(errors.DuplicateNodeId):
        build_topology(doc)


@pytest.mark.parametrize("node_id", ["", "h\t3", "h\n3"])
def test_node_id_must_be_printable_text(node_id):
    doc = three_node_doc()
    doc["nodes"].append({"id": node_id, "kind": "legacy_host"})
    with pytest.raises(errors.SchemaError):
        build_topology(doc)


def _deeply_nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


# Values only a document built in Python can hold; quoting each in a message
# with repr() raised ValueError, RecursionError or TypeError instead.
@pytest.mark.parametrize("path, value", [
    (("injections", 0, "packet", "ttl"), 10 ** 5000),
    (("injections", 0, "packet", "ttl"), _deeply_nested(100_000)),
    (("injections", 0, "packet", "src"), 10 ** 5000),
    (("injections", 0, "node"), 10 ** 5000),
    (("injections", 0, "packet", "dst"), "1" * 100_000),
    (("nodes", 0, 10 ** 5000), "x"),
    (("nodes", 0), {"id": "h1", "kind": "legacy_host", 3: "x", "colour": "red"}),
], ids=["huge_ttl", "deep_ttl", "huge_src", "huge_node", "long_dst", "huge_key", "mixed_keys"])
def test_loader_error_quotes_a_bounded_value(path, value):
    doc = three_node_doc()
    container = doc
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    with pytest.raises(errors.SchemaError) as caught:
        load_scenario(doc)
    assert len(str(caught.value)) < 300


def test_unknown_section_rejected():
    doc = three_node_doc()
    doc["nodez"] = []
    with pytest.raises(errors.SchemaError):
        build_topology(doc)


def test_unknown_kind_rejected():
    doc = three_node_doc()
    doc["nodes"][0]["kind"] = "quantum_router"
    with pytest.raises(errors.SchemaError):
        build_topology(doc)


def test_legacy_node_cannot_hold_logics():
    doc = three_node_doc()
    doc["registries"] = {"r1": [{"pl": "vpn", "allowed": [1]}]}
    with pytest.raises(errors.SchemaError):
        build_topology(doc)


def test_link_to_unknown_node():
    doc = three_node_doc()
    doc["links"].append(["h2", "ghost"])
    with pytest.raises(errors.DanglingReference):
        build_topology(doc)


def test_chain_with_no_functions_rejected():
    doc = three_node_doc()
    doc["chains"] = [{"spi": 3, "functions": []}]
    with pytest.raises(errors.SchemaError):
        build_topology(doc)


# -- routing table ------------------------------------------------------------------

def test_longest_prefix_wins():
    table = RoutingTable([
        RouteEntry(ip_network("10.0.0.0/8"), "coarse"),
        RouteEntry(ip_network("10.1.0.0/16"), "fine"),
    ])
    assert table.lookup(ip_address("10.1.2.3")) == "fine"
    assert table.lookup(ip_address("10.2.0.1")) == "coarse"
    assert table.lookup(ip_address("192.168.0.1")) is None


def test_prefix_tie_breaks_to_lowest_next_hop():
    table = RoutingTable([
        RouteEntry(ip_network("10.0.0.0/24"), "zeta"),
        RouteEntry(ip_network("10.0.0.0/24"), "alpha"),
    ])
    assert table.lookup(ip_address("10.0.0.5")) == "alpha"


# Route addresses are drawn near a few bases so prefixes nest and repeat,
# and keep their host bits, so most prefixes are non-canonical.
V4_BASES = (0x0A000000, 0x0A010200, 0xC0A80101)
V6_BASES = (0xFD00 << 112, (0xFD00 << 112) | (0x12 << 96) | 5, 1)


@st.composite
def route_triples(draw):
    routes = []
    for _ in range(draw(st.integers(0, 14))):
        if routes and draw(st.booleans()):
            # the same prefix again, usually with another next hop
            network, length, _hop = draw(st.sampled_from(routes))
        else:
            version = draw(st.sampled_from((4, 6)))
            width, cls, bases = ((32, IPv4Address, V4_BASES) if version == 4
                                 else (128, IPv6Address, V6_BASES))
            low = draw(st.integers(0, (1 << draw(st.integers(0, width))) - 1))
            network = cls(draw(st.sampled_from(bases)) ^ low)
            length = draw(st.one_of(st.just(0), st.just(width), st.integers(0, width)))
        routes.append((network, length, draw(st.sampled_from(("a", "b", "c")))))
    return routes


@given(route_triples(), st.lists(st.one_of(st.ip_addresses(v=4), st.ip_addresses(v=6)),
                                 max_size=4))
@settings(max_examples=300)
def test_route_lookup_matches_linear_scan_oracle(routes, extra_queries):
    networks = [ip_network(f"{network}/{length}", strict=False)
                for network, length, _hop in routes]
    table = RoutingTable([RouteEntry(net, hop) for net, (_a, _l, hop) in zip(networks, routes)])
    queries = list(extra_queries)
    for net in networks:
        first, last = int(net.network_address), int(net.broadcast_address)
        cls = type(net.network_address)
        queries += [cls(n) for n in (first - 1, first, last, last + 1)
                    if 0 <= n < (1 << net.max_prefixlen)]
    for query in queries:
        assert table.lookup(query) == lpm_scan(routes, query), query
    assert len(table) == len(routes)


# -- run ----------------------------------------------------------------------------

def test_empty_injection_list_yields_empty_trace():
    doc = three_node_doc()
    doc["injections"] = []
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    assert result.records == []
    assert result.steps == 0


def test_three_node_trace_sequence():
    scenario = load_scenario(three_node_doc())
    result = run(scenario.topology, scenario.injections, 100)
    events = [(r.time, r.node, r.event) for r in result.records]
    assert events == [
        (0, "h1", "Ingress"), (0, "h1", "Forward"),
        (1, "r1", "Ingress"), (1, "r1", "Forward"),
        (2, "h2", "Ingress"), (2, "h2", "Deliver"),
    ]
    ttls = [r.ttl for r in result.records]
    assert ttls == [64, 64, 64, 63, 63, 63]
    assert result.delivered == 1 and result.in_flight == 0


def test_routing_loop_hits_step_limit_then_ttl():
    doc = {
        "nodes": [
            {"id": "a", "kind": "legacy_router", "addresses": ["10.0.0.1"]},
            {"id": "b", "kind": "legacy_router", "addresses": ["10.0.0.2"]},
        ],
        "links": [["a", "b"]],
        "routes": {
            "a": [{"prefix": "10.9.0.0/16", "next_hop": "b"}],
            "b": [{"prefix": "10.9.0.0/16", "next_hop": "a"}],
        },
        "injections": [
            {"node": "a", "time": 0,
             "packet": {"version": 4, "src": "10.0.0.1", "dst": "10.9.9.9",
                        "protocol": 17, "ttl": 20, "payload_hex": ""}},
        ],
    }
    scenario = load_scenario(doc)
    limited = run(scenario.topology, scenario.injections, 5)
    assert limited.step_limit_exceeded
    assert limited.in_flight == 1
    assert limited.injected == limited.delivered + sum(limited.dropped.values()) + limited.in_flight
    full = run(scenario.topology, scenario.injections, 1000)
    assert not full.step_limit_exceeded
    assert full.dropped["TtlExpired"] == 1
    assert full.records[-1].event == "Drop(TtlExpired)"


def test_ttl_one_dropped_at_router():
    doc = three_node_doc()
    doc["injections"][0]["packet"]["ttl"] = 1
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    assert result.records[-1].node == "r1"
    assert result.records[-1].event == "Drop(TtlExpired)"


def test_no_route_drop():
    doc = three_node_doc()
    doc["injections"][0]["packet"]["dst"] = "172.31.0.1"
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    # h1's default route sends it to r1, which has no matching entry
    assert result.records[-1].node == "r1"
    assert result.records[-1].event == "Drop(NoRoute)"


def test_run_needs_a_positive_step_limit():
    scenario = load_scenario(three_node_doc())
    with pytest.raises(ValueError):
        run(scenario.topology, scenario.injections, 0)


def test_flow_rule_forward_to_a_node_not_linked_is_refused():
    doc = three_node_doc()
    doc["nodes"][0]["kind"] = "gvn_end_host"
    doc["flow_rules"] = {"h1": [{"action": {"kind": "forward_to", "next_hop": "h2"}}]}
    with pytest.raises(errors.SchemaError, match="not attached"):
        build_topology(doc)


def test_a_handler_forwarding_to_a_node_not_linked_is_a_traced_drop():
    # A logic may name any node at run time; the engine drops the packet.
    doc = three_node_doc()
    doc["nodes"][0]["kind"] = "gvn_end_host"
    doc["injections"][0]["gvn"] = {"code": 42}
    scenario = load_scenario(doc)
    scenario.topology.nodes["h1"].registry.register(ProcessingLogicBinding(
        code=42, name="astray", handler=lambda header, packet, local: PlAction.forward_to("h2")))
    result = run(scenario.topology, scenario.injections, 100)
    last = result.records[-1]
    assert (last.node, last.event, last.diagnostic) == ("h1", "Drop(NoRoute)", "no link to h2")


def _routeless_doc():
    """a, with no routes, linked to aa, b and c (listed out of order): b and
    c both own 10.0.0.9, and aa owns ::a00:9, the same integer in IPv6."""
    return {
        "nodes": [
            {"id": "a", "kind": "legacy_host", "addresses": ["10.0.0.1"]},
            {"id": "c", "kind": "legacy_host", "addresses": ["10.0.0.9", "10.0.0.3"]},
            {"id": "b", "kind": "legacy_host", "addresses": ["10.0.0.9", "10.0.0.2"]},
            {"id": "aa", "kind": "legacy_host", "addresses": ["::a00:9"]},
        ],
        "links": [["a", "c"], ["a", "b"], ["a", "aa"]],
        "injections": [
            {"node": "a", "time": 0,
             "packet": {"version": 4, "src": "10.0.0.1", "dst": dst}}
            for dst in ("10.0.0.9", "10.0.0.3", "10.0.0.4")
        ],
    }


def test_routeless_node_reaches_the_lowest_sorting_owner():
    scenario = load_scenario(_routeless_doc())
    result = run(scenario.topology, scenario.injections, 100)
    assert [(node, str(packet.dst)) for node, packet in result.delivered_packets] == [
        ("b", "10.0.0.9"), ("c", "10.0.0.3")]
    assert result.dropped == {"NoRoute": 1}


def test_routeless_node_holds_host_routes_to_its_neighbors():
    topology = build_topology(_routeless_doc())
    entries = topology.nodes["a"].routing.entries
    assert sorted((e.next_hop, str(e.network)) for e in entries) == [
        ("aa", "::a00:9/128"), ("b", "10.0.0.2/32"), ("b", "10.0.0.9/32"),
        ("c", "10.0.0.3/32"), ("c", "10.0.0.9/32")]


def test_gvn_tagged_packet_crosses_legacy_router_unchanged():
    doc = three_node_doc()
    doc["nodes"][0]["kind"] = "gvn_end_host"
    doc["nodes"][2]["kind"] = "gvn_end_host"
    doc["registries"] = {"h2": [{"pl": "vpn", "allowed": [5]}]}
    doc["injections"][0]["gvn"] = {"code": "vpn", "pl": {"kind": "vpn", "vnid": 5}}
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    assert result.delivered == 1
    node, packet = result.delivered_packets[0]
    assert node == "h2"
    injected = scenario.injections[0].packet
    # bytes from the GVN header onward are invariant across the hop
    assert packet.payload == injected.payload
    assert packet.ttl == injected.ttl - 1


def test_tagged_packet_at_legacy_host_is_discarded():
    doc = three_node_doc()
    doc["injections"][0]["gvn"] = {"code": 42}
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    assert result.records[-1].node == "h2"
    assert result.records[-1].event == "Drop(UnknownTransport)"


def test_malformed_tag_is_diagnosed_on_ingress_and_forwarded():
    scenario = load_scenario(three_node_doc())
    packet = make_packet(4, "10.0.0.1", "10.0.1.1", 17, 64, b"\xFF" + bytes(7))
    broken = packet.with_protocol_and_payload(GVN_PROTOCOL, packet.payload)
    from gvn.sim.topology import Injection
    result = run(scenario.topology, [Injection(node="h1", time=0, packet=broken)], 100)
    ingress = [r for r in result.records if r.event == "Ingress"]
    assert all("ReservedLength" in r.diagnostic for r in ingress)
    assert result.records[-1].event == "Drop(UnknownTransport)"  # at h2


# -- flow rules -------------------------------------------------------------------

def _tagged(code=2, pl=b"", dst="10.0.1.1"):
    packet = make_packet(4, "10.0.0.1", dst, 17, 64, b"x")
    return push_gvn(packet, GvnHeader(next_header=17, code=code, pl_data=pl))


def _match(rules, packet):
    return flow_match(rules, classify(packet).header, packet)


def test_flow_match_on_code():
    rule = FlowRule(priority=1, action=PlAction.deliver(), match_code=2)
    assert _match((rule,), _tagged(code=2)) is rule
    assert _match((rule,), _tagged(code=3)) is None


def test_flow_match_untagged_never_matches_code_rule():
    rule = FlowRule(priority=1, action=PlAction.deliver(), match_code=2)
    assert _match((rule,), make_packet(4, "1.1.1.1", "2.2.2.2", 17, 64)) is None


def test_flow_match_pl_prefix():
    tag = content_tag("video/abc")
    rule = FlowRule(priority=1, action=PlAction.deliver(),
                    match_pl_prefix=(0, tag))
    assert _match((rule,), _tagged(pl=tag)) is rule
    assert _match((rule,), _tagged(pl=content_tag("other/name"))) is None


def test_flow_match_dst_prefix():
    rule = FlowRule(priority=1, action=PlAction.deliver(),
                    match_dst_prefix=PrefixTable.of_prefixes([ip_network("10.0.1.0/24")]))
    assert _match((rule,), _tagged(dst="10.0.1.9")) is rule
    assert _match((rule,), _tagged(dst="10.0.2.9")) is None


def test_flow_priority_brute_force():
    # All orderings of two overlapping rules: the higher priority wins, and
    # equal priorities fall back to insertion order.
    low = FlowRule(priority=1, action=PlAction.deliver(), match_code=2)
    high = FlowRule(priority=9, action=PlAction.drop(DropReason.POLICY), match_code=2)
    packet = _tagged(code=2)
    for rules, expected in [
        ((low, high), high), ((high, low), high),
    ]:
        assert _match(rules, packet) is expected
    twin_a = FlowRule(priority=5, action=PlAction.deliver(), match_code=2)
    twin_b = FlowRule(priority=5, action=PlAction.drop(DropReason.POLICY), match_code=2)
    assert _match((twin_a, twin_b), packet) is twin_a
    assert _match((twin_b, twin_a), packet) is twin_b


# -- edge behavior ------------------------------------------------------------------

def edge_doc():
    return {
        "nodes": [
            {"id": "h1", "kind": "legacy_host", "addresses": ["192.168.1.10"]},
            {"id": "e1", "kind": "gvn_edge", "addresses": ["192.168.1.1"]},
            {"id": "e2", "kind": "gvn_edge", "addresses": ["192.168.2.1"]},
            {"id": "h2", "kind": "legacy_host", "addresses": ["192.168.2.10"]},
        ],
        "links": [["h1", "e1"], ["e1", "e2"], ["e2", "h2"]],
        "routes": {
            "h1": [{"prefix": "0.0.0.0/0", "next_hop": "e1"}],
            "e1": [{"prefix": "192.168.2.0/24", "next_hop": "e2"},
                   {"prefix": "192.168.1.0/24", "next_hop": "h1"}],
            "e2": [{"prefix": "192.168.2.0/24", "next_hop": "h2"},
                   {"prefix": "192.168.1.0/24", "next_hop": "e1"}],
            "h2": [{"prefix": "0.0.0.0/0", "next_hop": "e2"}],
        },
        "edge_policies": {
            "e1": {"ingress": [{"match": {"dst_prefix": "192.168.2.0/24", "protocol": 17},
                                "action": {"push": {"code": "vpn",
                                                    "pl": {"kind": "vpn", "vnid": 7}}}}]},
            "e2": {"pop_egress": ["192.168.2.0/24"]},
        },
        "injections": [
            {"node": "h1", "time": 0,
             "packet": {"version": 4, "src": "192.168.1.10", "dst": "192.168.2.10",
                        "protocol": 17, "ttl": 32, "payload_hex": "beefcafe"}},
        ],
    }


def test_edge_push_pop_symmetry_is_byte_exact_without_routers():
    scenario = load_scenario(edge_doc())
    result = run(scenario.topology, scenario.injections, 100)
    assert result.delivered == 1
    events = [r.event for r in result.records]
    assert "Push" in events and "Pop" in events
    _, packet = result.delivered_packets[0]
    assert packet.to_bytes() == scenario.injections[0].packet.to_bytes()


def test_edge_symmetry_through_a_router_changes_only_ttl():
    doc = edge_doc()
    doc["nodes"].insert(2, {"id": "g", "kind": "legacy_router", "addresses": ["10.0.0.9"]})
    doc["links"] = [["h1", "e1"], ["e1", "g"], ["g", "e2"], ["e2", "h2"]]
    doc["routes"]["e1"] = [{"prefix": "192.168.2.0/24", "next_hop": "g"},
                           {"prefix": "192.168.1.0/24", "next_hop": "h1"}]
    doc["routes"]["g"] = [{"prefix": "192.168.2.0/24", "next_hop": "e2"},
                          {"prefix": "192.168.1.0/24", "next_hop": "e1"}]
    doc["routes"]["e2"] = [{"prefix": "192.168.2.0/24", "next_hop": "h2"},
                           {"prefix": "192.168.1.0/24", "next_hop": "g"}]
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    injected = scenario.injections[0].packet
    _, packet = result.delivered_packets[0]
    assert packet.ttl == injected.ttl - 1
    assert packet.to_bytes() == injected.with_ttl(packet.ttl).to_bytes()


def test_flow_rule_push_and_pop_set_the_trace_code():
    doc = edge_doc()
    del doc["edge_policies"]
    doc["flow_rules"] = {
        "e1": [{"action": {"kind": "push",
                           "header": {"code": "vpn", "pl": {"kind": "vpn", "vnid": 7}}}}],
        "e2": [{"match": {"code": "vpn"}, "action": {"kind": "pop"}}],
    }
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    assert [(r.node, r.event, r.code) for r in result.records] == [
        ("h1", "Ingress", None), ("h1", "Forward", None),
        ("e1", "Ingress", None), ("e1", "Push", VPN_CODE), ("e1", "Forward", VPN_CODE),
        ("e2", "Ingress", VPN_CODE), ("e2", "Pop", None), ("e2", "Forward", None),
        ("h2", "Ingress", None), ("h2", "Deliver", None),
    ]
    _, packet = result.delivered_packets[0]
    assert packet.to_bytes() == scenario.injections[0].packet.to_bytes()


def test_untagged_non_matching_traffic_passes_edge_unchanged():
    doc = edge_doc()
    doc["injections"][0]["packet"]["protocol"] = 6  # rule matches UDP only
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    events = [r.event for r in result.records]
    assert "Push" not in events
    _, packet = result.delivered_packets[0]
    assert packet.to_bytes() == scenario.injections[0].packet.to_bytes()


def test_already_tagged_traffic_passes_edge_without_restacking():
    doc = edge_doc()
    doc["injections"][0]["gvn"] = {"code": "vpn", "pl": {"kind": "vpn", "vnid": 7}}
    doc["nodes"][0]["kind"] = "gvn_end_host"  # legacy host cannot source tags
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    pushes = [r for r in result.records if r.event == "Push"]
    assert pushes == []
    # still popped at the far edge and delivered untagged
    _, packet = result.delivered_packets[0]
    assert packet.protocol == 17


def _flow_rule_doc(rule):
    """h1 - r1 - h2, all GVN nodes, with one flow rule at r1, and two
    packets from h1 to h2 tagged with vnids 5 and 6, both of which h2 admits."""
    doc = three_node_doc()
    for index, kind in enumerate(("gvn_end_host", "gvn_router", "gvn_end_host")):
        doc["nodes"][index]["kind"] = kind
    doc["registries"] = {"h2": [{"pl": "vpn", "allowed": [5, 6]}]}
    doc["flow_rules"] = {"r1": [rule]}
    first = doc["injections"][0]
    doc["injections"] = [dict(first, gvn={"code": "vpn", "pl": {"kind": "vpn", "vnid": vnid}})
                         for vnid in (5, 6)]
    return doc


def _fates(doc):
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    return [(r.node, r.event, r.diagnostic) for r in result.records
            if r.event == "Deliver" or r.event.startswith("Drop(")]


@pytest.mark.parametrize("action, event", [
    ({"kind": "drop"}, "Drop(Policy)"),
    ({"kind": "drop", "reason": "NoRoute"}, "Drop(NoRoute)"),
])
def test_flow_rule_drop_from_a_document(action, event):
    assert _fates(_flow_rule_doc({"action": action})) == [
        ("r1", event, "flow rule"), ("r1", event, "flow rule")]


def test_flow_rule_pl_prefix_from_a_document():
    rule = {"match": {"pl_prefix": {"offset": 0, "hex": "00000005"}}, "action": {"kind": "drop"}}
    assert _fates(_flow_rule_doc(rule)) == [
        ("r1", "Drop(Policy)", "flow rule"), ("h2", "Deliver", None)]


def _oversize_edge_push(doc):
    doc["injections"][0]["packet"]["payload_hex"] = "00" * 65_500


def _oversize_flow_rule_push(doc):
    _oversize_edge_push(doc)
    del doc["edge_policies"]["e1"]
    doc["flow_rules"] = {"e1": [{"action": {
        "kind": "push", "header": {"code": "vpn", "pl": {"kind": "vpn", "vnid": 7}}}}]}


@pytest.mark.parametrize("change", [_oversize_edge_push, _oversize_flow_rule_push])
def test_oversize_push_is_a_traced_drop(change):
    doc = edge_doc()
    change(doc)
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    last = result.records[-1]
    assert (last.node, last.event, last.protocol, last.code) == ("e1", "Drop(Oversize)", 17, None)
    assert last.diagnostic == "tagged payload of 65516 exceeds IP limit"
    assert result.dropped == {"Oversize": 1} and result.in_flight == 0


def test_chain_entry_of_the_other_family_is_a_traced_drop():
    # The chain's function addresses are IPv4; the packet entering it is IPv6.
    doc = json.loads((SCENARIOS / "nfv_chain.json").read_text())
    doc["nodes"][0]["addresses"].append("fd00::1")
    doc["routes"]["h1"].append({"prefix": "::/0", "next_hop": "e1"})
    doc["edge_policies"]["e1"]["ingress"][0]["match"] = {"protocol": 17}
    doc["injections"][0]["packet"].update(version=6, src="fd00::1", dst="fd00::2")
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    last = result.records[-1]
    assert (last.node, last.event, last.dst) == ("e1", "Drop(FamilyMismatch)", "fd00::2")
    assert last.diagnostic == "address family does not match packet version"
    assert result.dropped == {"FamilyMismatch": 1} and result.in_flight == 0


def _chain_steps_to_the_other_family(doc):
    # f2 gets an IPv6 address and is the chain's second function.
    doc["nodes"][4]["addresses"] = ["fd00::f2"]
    doc["chains"][0]["functions"][1]["address"] = "fd00::f2"
    return "f1"


def _chain_restores_the_other_family(doc):
    # An IPv4 packet at the last function whose saved destination is IPv6.
    data = NfvChainData(spi=7, si=1, original_dst=IPv6Address("fd00::9"))
    injection = doc["injections"][0]
    injection["packet"]["dst"] = "10.1.0.3"
    injection["gvn"] = {"code": "nfv", "pl_data_hex": data.to_bytes().hex()}
    return "f3"


@pytest.mark.parametrize("change", [_chain_steps_to_the_other_family,
                                    _chain_restores_the_other_family])
def test_chain_step_to_the_other_family_is_a_traced_drop(change):
    doc = json.loads((SCENARIOS / "nfv_chain.json").read_text())
    at = change(doc)
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    last = result.records[-1]
    assert (last.node, last.event) == (at, "Drop(FamilyMismatch)")
    assert last.diagnostic == "address family does not match packet version"
    assert result.dropped == {"FamilyMismatch": 1}
    assert result.delivered + sum(result.dropped.values()) + result.in_flight == result.injected


def _malformed_tag_meets_edge_push(doc):
    del doc["edge_policies"]["e1"]["ingress"][0]["match"]["protocol"]


def _malformed_tag_meets_flow_rule_push(doc):
    del doc["edge_policies"]["e1"]
    doc["flow_rules"] = {"e1": [{"action": {
        "kind": "push", "header": {"code": "vpn", "pl": {"kind": "vpn", "vnid": 7}}}}]}


@pytest.mark.parametrize("change", [_malformed_tag_meets_edge_push,
                                    _malformed_tag_meets_flow_rule_push])
def test_malformed_tag_is_never_pushed(change):
    # Protocol 254 with a reserved length: no header parses, but the packet
    # is tagged all the same, and a second header would stack on it.
    doc = edge_doc()
    change(doc)
    doc["injections"][0]["packet"].update(protocol=GVN_PROTOCOL, payload_hex="ff" + "00" * 7)
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    assert [r.event for r in result.records if r.node == "e1"] == ["Ingress", "Forward"]
    ingress = result.records[2]
    assert (ingress.node, ingress.code) == ("e1", None)
    assert ingress.diagnostic.startswith("ReservedLength: ")
    assert result.delivered + sum(result.dropped.values()) + result.in_flight == result.injected


def test_prefix_matchers_at_prefix_boundaries():
    doc = edge_doc()
    doc["edge_policies"]["e1"]["ingress"][0]["match"] = {
        "dst_prefix": "192.168.2.0/24", "src_prefix": "192.168.1.7/30"}
    doc["edge_policies"]["e2"]["pop_egress"] = ["192.168.2.0/24", "fd00:2::/64"]
    doc["flow_rules"] = {"e2": [{"match": {"dst_prefix": "192.168.2.0/24"},
                                 "action": {"kind": "deliver"}}]}
    e1, e2 = (build_topology(doc).nodes[n] for n in ("e1", "e2"))
    inside = ["192.168.2.0", "192.168.2.255"]
    outside = ["192.168.1.255", "192.168.3.0", "::c0a8:201", "::ffff:192.168.2.1"]
    for dst in inside + outside:
        covered = dst in inside
        assert e2.edge_policy.should_pop(ip_address(dst)) is covered, dst
        version = 6 if ":" in dst else 4
        src = "192.168.1.4" if version == 4 else "fd00::1"
        packet = make_packet(version, src, dst, 17, 64)
        assert e1.edge_policy.ingress[0].matches(packet) is covered, dst
        assert (flow_match(e2.flow_rules, None, packet) is not None) is covered, dst
    assert e2.edge_policy.should_pop(ip_address("fd00:2::ffff:ffff:ffff:ffff"))
    assert not e2.edge_policy.should_pop(ip_address("fd00:2:0:1::"))
    for src in ("192.168.1.3", "192.168.1.8"):  # either side of 192.168.1.4/30
        packet = make_packet(4, src, "192.168.2.10", 17, 64)
        assert not e1.edge_policy.ingress[0].matches(packet), src
    packet = make_packet(4, "192.168.1.7", "192.168.2.10", 17, 64)
    assert e1.edge_policy.ingress[0].matches(packet)


# -- differential equivalence ---------------------------------------------------------

def test_bare_gvn_router_indistinguishable_from_legacy_router():
    base = three_node_doc()
    base["injections"].append(
        {"node": "h1", "time": 2,
         "packet": {"version": 4, "src": "10.0.0.1", "dst": "10.0.1.1",
                    "protocol": 17, "ttl": 9, "payload_hex": "00"},
         "gvn": {"code": 1234, "pl_data_hex": "aabbccdd"}})
    base["injections"].append(
        {"node": "h1", "time": 3,
         "packet": {"version": 4, "src": "10.0.0.1", "dst": "10.0.0.254",
                    "protocol": 17, "ttl": 9, "payload_hex": "00"},
         "gvn": {"code": 1234, "pl_data_hex": "aabbccdd"}})
    swapped = copy.deepcopy(base)
    swapped["nodes"][1]["kind"] = "gvn_router"
    traces = []
    for doc in (base, swapped):
        scenario = load_scenario(doc)
        result = run(scenario.topology, scenario.injections, 100)
        traces.append(format_text(result.records))
    assert traces[0] == traces[1]


# -- determinism -----------------------------------------------------------------------

def test_identical_runs_produce_identical_traces():
    doc = edge_doc()
    first = run(*_scenario_args(doc))
    second = run(*_scenario_args(doc))
    assert format_text(first.records) == format_text(second.records)


def _scenario_args(doc):
    scenario = load_scenario(copy.deepcopy(doc))
    return scenario.topology, scenario.injections, scenario.max_steps


# -- IPv6 on a single link ----------------------------------------------------------

def test_ipv6_tagged_delivery_over_one_link():
    doc = {
        "nodes": [
            {"id": "a", "kind": "gvn_end_host", "addresses": ["2001:db8::1"]},
            {"id": "b", "kind": "gvn_end_host", "addresses": ["2001:db8::2"]},
        ],
        "links": [["a", "b"]],
        "registries": {"b": [{"pl": "vpn", "allowed": [10]}]},
        "injections": [
            {"node": "a", "time": 0,
             "packet": {"version": 6, "src": "2001:db8::1", "dst": "2001:db8::2",
                        "protocol": 17, "ttl": 64, "payload_hex": "f00d"},
             "gvn": {"code": "vpn", "pl": {"kind": "vpn", "vnid": 10}}},
        ],
    }
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    assert result.delivered == 1
    node, packet = result.delivered_packets[0]
    assert node == "b"
    assert packet.version == 6
    assert packet.ttl == 64  # no routers on the path


# -- trace records -----------------------------------------------------------------

def test_trace_addresses_are_the_text_of_each_events_packet(monkeypatch):
    # Every source address is a distinct object holding 10.0.0.1, and the
    # last chain function restores each destination into a new object that
    # is freed when the packet's TTL runs out, before the next injection.
    checked = []
    record = engine._Sim._record

    def checking(sim, time, node, event, packet, header, diag=None):
        record(sim, time, node, event, packet, header, diag)
        last = sim.records[-1]
        checked.append((last.src, last.dst) == (str(packet.src), str(packet.dst)))

    monkeypatch.setattr(engine._Sim, "_record", checking)
    scenario = load_scenario(json.loads((SCENARIOS / "nfv_chain.json").read_text()))
    injections = [
        Injection(node="h1", time=40 * i, packet=IpPacket(
            version=4, src=IPv4Address("10.0.0.1"), dst=IPv4Address(f"10.0.2.{i + 2}"),
            protocol=17, ttl=12))
        for i in range(50)]
    result = run(scenario.topology, injections, 10_000)
    assert result.dropped == {"TtlExpired": 50}
    assert len(checked) == len(result.records) > 50 * 20
    assert all(checked)


def test_shared_actions_records_and_classifications_refuse_assignment():
    assert PlAction.forward_by_ip() is PlAction.forward_by_ip()
    assert PlAction.deliver() is PlAction.deliver()
    assert PlAction.deliver("noted").note == "noted"
    for action in (PlAction.forward_by_ip(), PlAction.deliver()):
        with pytest.raises(dataclasses.FrozenInstanceError):
            action.note = "changed"
        assert action.note is None
    record = TraceRecord(0, 0, "n", "Ingress", "10.0.0.1", "10.0.0.2", 17, None, 64)
    with pytest.raises(AttributeError):
        record.ttl = 1
    assert record == (0, 0, "n", "Ingress", "10.0.0.1", "10.0.0.2", 17, None, 64, None)
    assert record.to_dict()["diagnostic"] is None
    classification = classify(make_packet(4, "10.0.0.1", "10.0.0.2", 17, 64))
    with pytest.raises(AttributeError):
        classification.header = None
    assert classification == (17, None, None) and not classification.is_gvn


# Integers below 0 and above 255 as well as octets, codes at both ends of the
# 40-bit space (drawn from a few values, so codes repeat within a trace),
# and diagnostics that are absent, empty or text.
_trace_ints = st.one_of(st.integers(-2**40, -1), st.integers(0, 255), st.integers(256, 2**40))
_trace_codes = st.one_of(st.sampled_from([None, 0, 2**40 - 1]), st.integers(0, 2**40 - 1))
_trace_texts = st.text(max_size=12)
_trace_records = st.builds(
    TraceRecord, _trace_ints, _trace_ints, _trace_texts, _trace_texts, _trace_texts,
    _trace_texts, _trace_ints, _trace_codes, _trace_ints,
    st.one_of(st.sampled_from([None, ""]), _trace_texts))


@given(st.lists(_trace_records, max_size=8))
@example([TraceRecord(-1, 256, "n", "Ingress", "a", "b", -7, None, 300, None),
          TraceRecord(0, 0, "n", "Forward", "a", "b", 255, 0, 0, ""),
          TraceRecord(2**40, 1, "n", "Deliver", "a", "b", 256, 2**40 - 1, -1, "note"),
          TraceRecord(3, 1, "n", "Deliver", "a", "b", 17, 2**40 - 1, 64, None)])
@settings(max_examples=200)
def test_format_text_matches_the_line_oracle(records):
    assert format_text(records) == "".join(trace_line(record) + "\n" for record in records)
    assert [record.to_line() for record in records] == [trace_line(record) for record in records]


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")) + ["mixed_fabric"])
def test_every_record_is_a_whole_trace_record(name, monkeypatch):
    # The simulator builds records with tuple.__new__, which checks no
    # arity: a field added to TraceRecord must fail here, not yield short
    # records.  mixed_fabric is the benchmark's workload on seed 11.
    if name == "mixed_fabric":
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        doc = importlib.import_module("workloads").SIM_WORKLOADS[name](11).doc
        doc = json.loads(json.dumps(doc))
    else:
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    records = run(*_scenario_args(doc)).records
    assert records
    for record in records:
        assert type(record) is TraceRecord
        assert len(record) == len(TraceRecord._fields)
        assert record == TraceRecord(*record)


# -- single-node processing ------------------------------------------------------------

def test_single_arrival_in_one_step():
    topology = build_topology(three_node_doc())
    packet = make_packet(4, "10.0.0.1", "10.0.0.254", 17, 64, b"to the router")
    result = run(topology, [Injection(node="r1", time=0, packet=packet)], 1)
    assert [r.event for r in result.records] == ["Ingress", "Deliver"]

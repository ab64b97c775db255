"""Simulator: topology building, per-kind processing, rules, determinism."""

import copy
import dataclasses
import importlib
import json
import pickle
import sys
from ipaddress import IPv4Address, IPv6Address, ip_address, ip_network
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvn import errors
from gvn.cli import main
from gvn.codec import CODE_MAX, GVN_PROTOCOL, GvnHeader, classify, push_gvn, strip_gvn
from gvn.framework import DropReason, PlAction, PlRegistry, ProcessingLogicBinding
from gvn.logics import VPN_CODE, NfvChainData, VpnData, content_tag
from gvn.logics.nfv import SI_MAX
from gvn.packet import IpPacket, make_packet
from gvn.sim import build_topology, engine, flow_match, load_scenario, parse_injections, run
from gvn.sim.topology import (
    FlowRule,
    HeaderTemplate,
    Injection,
    Node,
    NodeKind,
    PrefixTable,
    RouteEntry,
    RoutingTable,
    Topology,
    _show,
    address_key,
)
from gvn.sim.trace import TraceRecord, format_json, format_text

from .oracles import check_arrivals, check_step_order, lpm_scan, trace_line
from .test_cli import _loop_doc
from .test_codec import replaced

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"


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


@pytest.mark.parametrize("doc", [{}, {"nodes": []}])
def test_a_scenario_without_nodes_is_refused(doc):
    with pytest.raises(errors.SchemaError, match="^scenario defines no nodes$"):
        build_topology(doc)


def _long_chain_doc(length):
    """h1 - e1 - f1 - f2, and f1 - h2.  The edge e1 enters UDP into a chain of
    ``length`` functions that alternate between the linked f1 and f2."""
    return {
        "nodes": [{"id": "h1", "kind": "legacy_host", "addresses": ["10.0.0.1"]},
                  {"id": "e1", "kind": "gvn_edge", "addresses": ["10.0.0.254"]},
                  {"id": "f1", "kind": "nfv_function", "addresses": ["10.1.0.1"]},
                  {"id": "f2", "kind": "nfv_function", "addresses": ["10.1.0.2"]},
                  {"id": "h2", "kind": "legacy_host", "addresses": ["10.0.2.1"]}],
        "links": [["h1", "e1"], ["e1", "f1"], ["f1", "f2"], ["f1", "h2"]],
        "routes": {"h1": [{"prefix": "0.0.0.0/0", "next_hop": "e1"}]},
        "chains": [{"spi": 1, "functions": [
            {"node": f"f{1 + i % 2}", "address": f"10.1.0.{1 + i % 2}"} for i in range(length)]}],
        "edge_policies": {"e1": {"ingress": [{"match": {"protocol": 17},
                                              "action": {"encap_chain": 1}}]}},
        "injections": [{"node": "h1", "time": 0,
                        "packet": {"src": "10.0.0.1", "dst": "10.0.2.1", "protocol": 17}}],
    }


def test_chain_longer_than_its_si_octet_is_refused_at_load(tmp_path, capsys):
    # si, the count of functions still to visit, is one octet of the chain data.
    doc = _long_chain_doc(SI_MAX + 1)
    with pytest.raises(errors.SchemaError, match=r"^chains\[0\]\.functions: .* got 256$"):
        build_topology(doc)
    path = tmp_path / "long_chain.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--trace", str(tmp_path / "t")]) == 2
    assert "chains[0].functions" in capsys.readouterr().err


def test_chain_as_long_as_its_si_octet_loads_and_runs():
    result = run(*_scenario_args(_long_chain_doc(SI_MAX)))
    assert [r.event for r in result.records].count("Rewrite") == SI_MAX
    assert (result.delivered, result.dropped, result.in_flight) == (1, {}, 0)
    assert result.records[-1][2:4] == ("h2", "Deliver")


def _nfv_chain_doc(*functions):
    """nfv_chain.json with a second address on f1, 10.1.0.11, routed to f1
    by r1, and its chain visiting ``functions``, (node, address) pairs."""
    doc = json.loads((SCENARIOS / "nfv_chain.json").read_text())
    doc["nodes"][3]["addresses"].append("10.1.0.11")
    doc["routes"]["r1"].insert(0, {"prefix": "10.1.0.11/32", "next_hop": "f1"})
    doc["chains"][0]["functions"] = [{"node": node, "address": address}
                                     for node, address in functions]
    return doc


def test_a_chain_visiting_one_node_twice_in_a_row_is_refused():
    # f1 would steer the packet to its own second address and then deliver
    # it, still tagged, as a capable node's own packet: h2 would never get it.
    doc = _nfv_chain_doc(("f1", "10.1.0.1"), ("f1", "10.1.0.11"), ("f2", "10.1.0.2"),
                         ("f3", "10.1.0.3"))
    with pytest.raises(errors.SchemaError) as refused:
        build_topology(doc)
    assert str(refused.value) == "chains[0].functions[1]: node 'f1' also runs the previous function"


@pytest.mark.parametrize("address", ["10.1.0.1", "10.1.0.11"])
def test_a_chain_may_revisit_a_node_after_another(address):
    result = run(*_scenario_args(_nfv_chain_doc(("f1", "10.1.0.1"), ("f2", "10.1.0.2"),
                                                ("f1", address))))
    assert [(r.node, r.dst) for r in result.records if r.event == "Rewrite"] == [
        ("f1", "10.1.0.2"), ("f2", address), ("f1", "10.0.2.1")]
    assert (result.delivered, result.dropped, result.in_flight) == (1, {}, 0)
    assert result.records[-1][2:4] == ("h2", "Deliver")


@pytest.mark.parametrize("fields, message", [
    ({"code": CODE_MAX + 1}, "code 0x10000000000 outside the 40-bit space"),
    ({"code": 1, "pl_data": b"abc"}, "pl_data length 3 not 4-aligned"),
    ({"code": 1, "flags": 256}, "flags 0x100 not an octet"),
])
def test_header_template_checks_itself_when_built(fields, message):
    with pytest.raises(errors.InvalidHeader, match=message):
        HeaderTemplate(**fields)


def test_header_template_tags_with_the_header_the_constructor_builds():
    template = HeaderTemplate(code=VPN_CODE, flags=0x80, pl_data=bytes(8))
    packet = make_packet(6, "fd00::1", "fd00::2", 58, 9, b"echo")
    tagged, header, note = template.tag(packet)
    built = GvnHeader(next_header=58, code=VPN_CODE, flags=0x80, pl_data=bytes(8))
    assert header == built and vars(header) == vars(built)
    assert tagged == push_gvn(packet, built)
    assert note == f"code={VPN_CODE:#012x}"


def test_an_injections_gvn_tag_is_pushed_without_a_header_template(monkeypatch):
    built = []
    monkeypatch.setattr(HeaderTemplate, "__post_init__", lambda template: built.append(template))
    doc = json.loads((SCENARIOS / "end_host_tagging.json").read_text())
    [injection] = parse_injections(doc, build_topology(doc))
    assert built == []
    assert classify(injection.packet).header == GvnHeader(17, VPN_CODE, 0, VpnData(10).to_bytes())
    # An edge's push template is still built as one.
    build_topology(json.loads((SCENARIOS / "edge_domain_tagging.json").read_text()))
    assert len(built) == 1


def test_template_reader_names_the_invalid_header():
    doc = json.loads((SCENARIOS / "end_host_tagging.json").read_text())
    doc["injections"][0]["gvn"] = {"code": "vpn", "pl_data_hex": "000000"}
    with pytest.raises(errors.SchemaError) as refused:
        load_scenario(doc)
    assert str(refused.value) == ("injections[0].gvn: template does not build a valid header: "
                                  "pl_data length 3 not 4-aligned")


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


@pytest.mark.parametrize("name", ["loop", "nfv_chain", "vpn_separation"])
def test_every_step_limit_cuts_the_unlimited_run(name):
    # The loop bounces one packet between two routers until its TTL runs out.
    doc = _loop_doc() if name == "loop" else json.loads((SCENARIOS / f"{name}.json").read_text())
    topology, injections, max_steps = _scenario_args(doc)
    full = run(topology, injections, max_steps)
    assert not full.step_limit_exceeded and full.steps > 2
    for limit in range(1, full.steps + 2):
        cut = run(topology, injections, limit)
        assert cut.records == full.records[:len(cut.records)], limit
        assert cut.delivered + sum(cut.dropped.values()) + cut.in_flight == cut.injected, limit
        # A run that ends at its last allowed step reaches max_steps within the limit.
        assert (cut.steps == limit) is (cut.step_limit_exceeded or limit == full.steps), limit
        assert cut.step_limit_exceeded is (limit < full.steps), limit
    assert cut.records == full.records and cut.steps == full.steps and cut.in_flight == 0


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


def _traced_with_logic(handler):
    """The text trace of three_node_doc's packet tagged with code 42, which
    h1, an end host, handles with ``handler``."""
    doc = three_node_doc()
    doc["nodes"][0]["kind"] = "gvn_end_host"
    doc["injections"][0]["gvn"] = {"code": 42}
    scenario = load_scenario(doc)
    scenario.topology.nodes["h1"].registry.register(
        ProcessingLogicBinding(code=42, name="logic", handler=handler))
    return format_text(run(scenario.topology, scenario.injections, 100).records)


def test_a_noted_forward_by_ip_traces_as_the_shared_one():
    # A note makes a new action, which the engine resolves by its kind; the
    # shared one takes the engine's shortcut.  Neither note is traced.
    shared = _traced_with_logic(lambda header, packet, local: PlAction.forward_by_ip())
    noted = _traced_with_logic(lambda header, packet, local: PlAction.forward_by_ip(note="x"))
    assert noted == shared
    assert "\th2\tIngress\t" in shared


def test_a_vpn_tag_of_the_wrong_length_is_a_traced_drop():
    doc = three_node_doc()
    doc["nodes"][1]["kind"] = "gvn_router"
    doc["registries"] = {"r1": [{"pl": "vpn", "allowed": [1]}]}
    doc["injections"][0]["gvn"] = {"code": "vpn", "pl_data_hex": "00000001"}
    result = run(*_scenario_args(doc))
    last = result.records[-1]
    assert (last.node, last.event, last.diagnostic) == (
        "r1", "Drop(MalformedPl)", "vpn data must be 8 octets, got 4")
    assert result.dropped == {"MalformedPl": 1}


def test_a_link_edited_away_after_load_is_a_traced_drop():
    # Node.links stays a plain dict; a route whose next hop lost its link
    # drops the packet, where it once aborted run() with a KeyError.
    scenario = load_scenario(json.loads((SCENARIOS / "nfv_chain.json").read_text()))
    for node in scenario.topology.nodes.values():
        node.links.clear()
    result = run(scenario.topology, scenario.injections, 100)
    assert [(r.node, r.event) for r in result.records if r.event.startswith("Drop")] == [
        ("h1", "Drop(NoRoute)")] * len(scenario.injections)
    assert result.dropped == {"NoRoute": len(scenario.injections)} and result.delivered == 0


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


@pytest.mark.parametrize("order", [("10.0.0.9", "::a00:9"), ("::a00:9", "10.0.0.9")])
def test_forwarding_cache_keeps_the_families_of_one_integer_apart(order):
    # 10.0.0.9 and ::a00:9 are one integer; a routes the first to b and the
    # second to aa, and a warm cache must not hand one the other's next hop.
    topology = build_topology(_routeless_doc())
    expected = {"10.0.0.9": "b", "::a00:9": "aa"}
    for _ in range(2):
        for dst in order:
            packet = make_packet(6 if ":" in dst else 4, "fd00::1" if ":" in dst else "10.0.0.1",
                                 dst, 17, 64, b"x")
            result = run(topology, [Injection("a", 0, packet)], 10)
            assert [(node, str(p.dst)) for node, p in result.delivered_packets] == [
                (expected[dst], dst)]


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


@pytest.mark.parametrize("middle", ["legacy_router", "gvn_router"])
def test_malformed_tag_is_diagnosed_on_ingress_and_forwarded(middle):
    # A malformed tag carries no header from hop to hop, so each node,
    # capable or not, diagnoses it again on ingress.
    doc = three_node_doc()
    doc["nodes"][1]["kind"] = middle
    scenario = load_scenario(doc)
    packet = make_packet(4, "10.0.0.1", "10.0.1.1", 17, 64, b"\xFF" + bytes(7))
    broken = packet.with_protocol_and_payload(GVN_PROTOCOL, packet.payload)
    result = run(scenario.topology, [Injection(node="h1", time=0, packet=broken)], 100)
    ingress = [r for r in result.records if r.event == "Ingress"]
    assert [r.node for r in ingress] == ["h1", "r1", "h2"]
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



def test_a_legacy_host_bounces_a_packet_for_an_unowned_address_with_its_edge():
    # Pinned as it stands.  h2 owns no 192.168.2.70, so it forwards the
    # packet by its default route back to e2, which sends it to h2 again.
    # Neither kind decrements TTL, so the loop runs until the step limit.
    doc = edge_doc()
    doc["injections"][0]["packet"]["dst"] = "192.168.2.70"
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    assert (result.step_limit_exceeded, result.in_flight, len(result.records)) == (True, 1, 202)
    bounces = [r for r in result.records if r.time >= 3]
    assert {(r.time % 2, r.node, r.event) for r in bounces} == {
        (1, "h2", "Ingress"), (1, "h2", "Forward"), (0, "e2", "Ingress"), (0, "e2", "Forward")}
    assert {r.ttl for r in bounces} == {32}

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


def test_edge_node_with_ingress_rules_flow_rules_and_a_logic():
    # An ingress push meets the flow table, and then the logics, on the
    # tagged packet; a flow-rule push is followed by its own action only.
    # e1's vpn logic admits no vnid, so a dispatch there is a drop.
    doc = edge_doc()
    doc["nodes"][3]["addresses"].append("192.168.2.70")
    doc["registries"] = {"e1": [{"pl": "vpn", "allowed": []}]}
    vnid_9 = {"code": "vpn", "pl": {"kind": "vpn", "vnid": 9}}
    doc["flow_rules"] = {"e1": [
        {"priority": 10, "match": {"code": "vpn", "dst_prefix": "192.168.2.128/25"},
         "action": {"kind": "deliver"}},
        {"match": {"dst_prefix": "192.168.2.64/26"}, "action": {"kind": "push", "header": vnid_9}},
    ]}
    first = doc["injections"][0]
    doc["injections"] = [
        dict(first, time=time, packet=dict(first["packet"], dst=dst, protocol=protocol))
        for time, dst, protocol in [(0, "192.168.2.10", 17), (10, "192.168.2.200", 17),
                                    (20, "192.168.2.70", 6), (30, "192.168.2.70", 17)]]
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    code = f"code={VPN_CODE:#012x}"
    assert [(r.time, r.event, r.code, r.diagnostic) for r in result.records if r.node == "e1"] == [
        # ingress push, no flow rule matches, the logic refuses vnid 7
        (1, "Ingress", None, None), (1, "Push", VPN_CODE, code),
        (1, "Drop(VpnViolation)", VPN_CODE, "vnid=7"),
        # ingress push, then the flow rule that matches its code
        (11, "Ingress", None, None), (11, "Push", VPN_CODE, code),
        (11, "Deliver", VPN_CODE, "flow rule"),
        # no ingress rule for TCP: the flow-rule push, then forward by IP
        (21, "Ingress", None, None), (21, "Push", VPN_CODE, f"flow rule {code}"),
        (21, "Forward", VPN_CODE, "to=e2"),
        # ingress push; the flow push rule then finds the packet tagged
        (31, "Ingress", None, None), (31, "Push", VPN_CODE, code),
        (31, "Forward", VPN_CODE, "to=e2"),
    ]
    assert result.delivered == 3 and result.dropped == {"VpnViolation": 1}


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


def test_oversize_chain_entry_is_a_traced_drop():
    # 8 fixed and 12 chain-data octets more than the largest IPv4 payload.
    doc = json.loads((SCENARIOS / "nfv_chain.json").read_text())
    doc["injections"][0]["packet"]["payload_hex"] = "00" * 65_496
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 100)
    last = result.records[-1]
    assert (last.node, last.event, last.protocol, last.code) == ("e1", "Drop(Oversize)", 17, None)
    assert last.diagnostic == "tagged payload of 65516 exceeds IP limit"
    assert result.dropped == {"Oversize": 1} and result.in_flight == 0


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
        assert (e2.pop_egress.lookup(ip_address(dst)) is not None) is covered, dst
        version = 6 if ":" in dst else 4
        src = "192.168.1.4" if version == 4 else "fd00::1"
        packet = make_packet(version, src, dst, 17, 64)
        assert e1.ingress[0].matches(packet) is covered, dst
        assert (flow_match(e2.flow_rules, None, packet) is not None) is covered, dst
    assert e2.pop_egress.lookup(ip_address("fd00:2::ffff:ffff:ffff:ffff"))
    assert e2.pop_egress.lookup(ip_address("fd00:2:0:1::")) is None
    for src in ("192.168.1.3", "192.168.1.8"):  # either side of 192.168.1.4/30
        packet = make_packet(4, src, "192.168.2.10", 17, 64)
        assert not e1.ingress[0].matches(packet), src
    packet = make_packet(4, "192.168.1.7", "192.168.2.10", 17, 64)
    assert e1.ingress[0].matches(packet)


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
    # An arrival writes its Ingress record first and a forward its Forward
    # record last, both in place; a TTL change or a pop before the Forward
    # keeps the addresses.  _record writes every other record.
    checked = {"Ingress": [], "Forward": [], "other": []}
    arrive, forward, record = engine._Sim.arrive, engine._Sim._forward, engine._Sim._record

    def check(kind, written, packet):
        checked[kind].append((written.src, written.dst) == (str(packet.src), str(packet.dst)))

    def arriving(sim, time, node, packet, header, text):
        first = len(sim.records)
        sent = arrive(sim, time, node, packet, header, text)
        assert sim.records[first].event == "Ingress"
        check("Ingress", sim.records[first], packet)
        return sent

    def forwarding(sim, time, node, packet, header, text, next_hop=None):
        sent = forward(sim, time, node, packet, header, text, next_hop)
        if sent is not None:
            assert sim.records[-1].event == "Forward"
            check("Forward", sim.records[-1], packet)
        return sent

    def recording(sim, time, node, event, packet, header, text, diag=None):
        record(sim, time, node, event, packet, header, text, diag)
        check("other", sim.records[-1], packet)

    monkeypatch.setattr(engine._Sim, "arrive", arriving)
    monkeypatch.setattr(engine._Sim, "_forward", forwarding)
    monkeypatch.setattr(engine._Sim, "_record", recording)
    scenario = load_scenario(json.loads((SCENARIOS / "nfv_chain.json").read_text()))
    injections = [
        Injection(node="h1", time=40 * i, packet=IpPacket(
            version=4, src=IPv4Address("10.0.0.1"), dst=IPv4Address(f"10.0.2.{i + 2}"),
            protocol=17, ttl=12))
        for i in range(50)]
    result = run(scenario.topology, injections, 10_000)
    assert result.dropped == {"TtlExpired": 50}
    assert sum(map(len, checked.values())) == len(result.records) == 2_700
    assert all(map(all, checked.values()))


def test_a_rewrite_of_both_addresses_shows_in_every_later_record():
    # The text is carried from hop to hop; a rewrite renders it again.
    doc = three_node_doc()
    doc["nodes"][0]["kind"] = "gvn_end_host"
    doc["injections"][0]["packet"]["dst"] = "10.0.1.99"
    doc["injections"][0]["gvn"] = {"code": 42}
    scenario = load_scenario(doc)

    def move(header, packet, local):
        moved = replaced(strip_gvn(packet, header), src=IPv4Address("10.0.0.7"),
                         dst=IPv4Address("10.0.1.1"))
        return PlAction.rewrite_and_forward(moved, None, note="moved")

    scenario.topology.nodes["h1"].registry.register(
        ProcessingLogicBinding(code=42, name="move", handler=move))
    result = run(scenario.topology, scenario.injections, 100)
    assert [(r.node, r.event, r.src, r.dst) for r in result.records] == [
        ("h1", "Ingress", "10.0.0.1", "10.0.1.99"),
        ("h1", "Rewrite", "10.0.0.7", "10.0.1.1"),
        ("h1", "Forward", "10.0.0.7", "10.0.1.1"),
        ("r1", "Ingress", "10.0.0.7", "10.0.1.1"),
        ("r1", "Forward", "10.0.0.7", "10.0.1.1"),
        ("h2", "Ingress", "10.0.0.7", "10.0.1.1"),
        ("h2", "Deliver", "10.0.0.7", "10.0.1.1"),
    ]


def _mixed_fabric_doc(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    doc = importlib.import_module("workloads").SIM_WORKLOADS["mixed_fabric"](seed).doc
    return json.loads(json.dumps(doc))


_SCENARIO_NAMES = sorted(p.stem for p in SCENARIOS.glob("*.json")) + ["mixed_fabric"]


def _scenario_doc(name, monkeypatch):
    """The document of a bundled scenario, or of seed-11 ``mixed_fabric``."""
    if name == "mixed_fabric":
        return _mixed_fabric_doc(monkeypatch, 11)
    return json.loads((SCENARIOS / f"{name}.json").read_text())


@pytest.mark.parametrize("name", _SCENARIO_NAMES)
def test_injections_built_by_hand_trace_as_loaded_ones(name, monkeypatch):
    # A loaded injection's addresses have their text in the topology's
    # table, keyed by value: equal address objects built by hand find that
    # same text there, and none of them is rendered.
    doc = _scenario_doc(name, monkeypatch)
    loaded = load_scenario(copy.deepcopy(doc))
    by_hand = load_scenario(copy.deepcopy(doc))
    fresh = [Injection(node, time, replaced(
        packet, src=ip_address(str(packet.src)), dst=ip_address(str(packet.dst))))
        for node, time, packet in by_hand.injections]
    table = by_hand.topology.address_text
    for injection, (_node, _time, packet) in zip(fresh, by_hand.injections):
        for address, named in ((injection.packet.src, packet.src),
                               (injection.packet.dst, packet.dst)):
            assert address is not named
            assert table.text(address) is table.text(named)  # a render makes a new str
    want = run(loaded.topology, loaded.injections, loaded.max_steps)
    got = run(by_hand.topology, fresh, by_hand.max_steps)
    assert format_text(got.records) == format_text(want.records)


@pytest.mark.parametrize("name", _SCENARIO_NAMES)
def test_a_load_decides_each_address_text_with_one_libc_round_trip(name, monkeypatch):
    # _canonical both parses an address text and decides its trace text.
    from gvn.sim.topology import _canonical

    doc = _scenario_doc(name, monkeypatch)
    calls = []

    def counting(family, text):
        if sys._getframe(1).f_code.co_name == "_parse_address":  # not the prefix reader
            calls.append(text)
        return _canonical(family, text)

    monkeypatch.setattr("gvn.sim.topology._canonical", counting)
    scenario = load_scenario(doc)
    assert sorted(calls) == sorted(scenario.topology.address_text.parsed)
    assert any(":" in text for text in calls) == (name == "mixed_fabric")


_CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda value: pickle.loads(pickle.dumps(value))}


def _trace(scenario):
    return format_text(run(scenario.topology, scenario.injections, scenario.max_steps).records)


@pytest.mark.parametrize("clone", list(_CLONES.values()), ids=list(_CLONES))
def test_a_copied_or_pickled_scenario_traces_as_the_original(clone, monkeypatch):
    # A loaded scenario is plain data: its address text is keyed by value
    # and its logics are module-level functions bound to their data, so a
    # whole clone, taken before or after a run, needs no re-keying.
    for name in _SCENARIO_NAMES:
        scenario = load_scenario(_scenario_doc(name, monkeypatch))
        cold = clone(scenario)
        want = _trace(scenario)
        warm = clone(scenario)
        for copied in (cold, warm):
            table = copied.topology.address_text
            assert set(table) == {address_key(address) for address in table.parsed.values()}
            assert table == scenario.topology.address_text
            assert table.parsed.keys() == scenario.topology.address_text.parsed.keys()
            for _node, _time, packet in copied.injections:
                assert (table[address_key(packet.src)], table[address_key(packet.dst)]) == (
                    str(packet.src), str(packet.dst))
        del scenario
        assert _trace(warm) == _trace(cold) == want, name


@pytest.mark.parametrize("clone", list(_CLONES.values()), ids=list(_CLONES))
def test_a_copied_or_pickled_node_starts_with_a_cold_forwarding_cache(clone):
    # The cache is derived: a copy fills its own on first use.
    scenario = load_scenario(json.loads((SCENARIOS / "nfv_chain.json").read_text()))
    want = _trace(scenario)
    for node in scenario.topology.nodes.values():
        assert node.forwarding
        copied = clone(node)
        assert copied.forwarding == {} and copied.forwarding is not node.forwarding
        assert (copied.id, copied.kind, copied.addresses) == (node.id, node.kind, node.addresses)
    assert _trace(scenario) == want


def test_a_deep_copy_s_logics_read_the_copy_s_own_chains():
    scenario = load_scenario(json.loads((SCENARIOS / "nfv_chain.json").read_text()))
    copied = copy.deepcopy(scenario)
    copied.topology.chains.clear()
    # The ingress rules hold their chain and still enter packets into it;
    # the function nodes look the spi up in the copy's emptied table.
    dropped = run(copied.topology, copied.injections, copied.max_steps).dropped
    assert dropped["UnknownSpi"] > 0
    assert _trace(scenario) == (GOLDEN / "nfv_chain.trace").read_text()


def test_non_canonical_ipv6_text_traces_in_canonical_form():
    doc = {
        "nodes": [
            {"id": "a", "kind": "legacy_host", "addresses": ["FD00:0:0::1"]},
            {"id": "b", "kind": "legacy_host", "addresses": ["fd00:0::0:2"]},
        ],
        "links": [["a", "b"]],
        "injections": [
            {"node": "a", "time": 0,
             "packet": {"version": 6, "src": "FD00:0:0::1", "dst": "FD00::2",
                        "protocol": 17, "ttl": 64}},
        ],
    }
    scenario = load_scenario(doc)
    result = run(scenario.topology, scenario.injections, 10)
    assert [(r.node, r.event, r.src, r.dst) for r in result.records] == [
        ("a", "Ingress", "fd00::1", "fd00::2"),
        ("a", "Forward", "fd00::1", "fd00::2"),
        ("b", "Ingress", "fd00::1", "fd00::2"),
        ("b", "Deliver", "fd00::1", "fd00::2"),
    ]


@pytest.mark.parametrize("path", [("nodes", 0, "addresses", 0),
                                  ("injections", 0, "packet", "src"),
                                  ("injections", 0, "packet", "dst")])
def test_ipv4_text_with_a_leading_zero_is_refused(path):
    # The loader reuses accepted IPv4 text as its trace text, which holds
    # only because ipaddress refuses every other spelling of an address.
    doc = three_node_doc()
    container = doc
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = container[path[-1]][:-1] + "0" + container[path[-1]][-1]
    with pytest.raises(errors.SchemaError, match="Leading zeros"):
        load_scenario(doc)


def _v6_chain_doc():
    return {
        "nodes": [
            {"id": "a", "kind": "legacy_host", "addresses": ["fd00::1"]},
            {"id": "f", "kind": "nfv_function", "addresses": ["fd00::2"]},
        ],
        "links": [["a", "f"]],
        "routes": {"a": [{"prefix": "fd00::/64", "next_hop": "f"}]},
        "chains": [{"spi": 1, "functions": [{"node": "f", "address": "fd00::2"}]}],
        "injections": [{"node": "a", "time": 0,
                        "packet": {"version": 6, "src": "fd00::1", "dst": "fd00::2"}}],
    }


@pytest.mark.parametrize("path, value, message", [
    (("nodes", 1, "addresses", 0), "fd00::2%eth0",
     "nodes[1].addresses[0]: bad address 'fd00::2%eth0'"),
    (("chains", 0, "functions", 0, "address"), "fd00::2%eth0",
     "chains[0].functions[0].address: bad address 'fd00::2%eth0'"),
    (("injections", 0, "packet", "src"), "fd00::1%0",
     "injections[0].packet.src: bad address 'fd00::1%0'"),
    (("injections", 0, "packet", "dst"), "fd00::2%x\ty\nz",
     "injections[0].packet.dst: bad address 'fd00::2%x\\ty\\nz'"),
    (("routes", "a", 0, "prefix"), "fd00::%eth0/64",
     "routes['a'][0].prefix: bad prefix 'fd00::%eth0/64'"),
], ids=["node_address", "chain_hop_address", "injection_src", "injection_dst", "route_prefix"])
def test_ipv6_scope_ids_are_refused(path, value, message):
    # A scope id may hold a tab or a newline, which delimit trace fields.
    doc = _v6_chain_doc()
    load_scenario(copy.deepcopy(doc))
    container = doc
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    with pytest.raises(errors.SchemaError) as refused:
        load_scenario(doc)
    assert str(refused.value) == f"{message}: scope ids are not supported"


def test_a_scoped_address_built_by_hand_traces_with_its_scope():
    # ipaddress counts a scope id in equality, and so does the text table:
    # fd00::2%eth0 is not the fd00::2 the topology loaded, but fd00::1 built
    # by hand is the fd00::1 it loaded.
    scenario = load_scenario(_v6_chain_doc())
    packet = make_packet(6, "fd00::1", "fd00::2%eth0", 17, 64)
    result = run(scenario.topology, [Injection("a", 0, packet)], 10)
    assert [(r.node, r.event, r.src, r.dst) for r in result.records] == [
        ("a", "Ingress", "fd00::1", "fd00::2%eth0"),
        ("a", "Forward", "fd00::1", "fd00::2%eth0"),
        ("f", "Ingress", "fd00::1", "fd00::2%eth0"),
        ("f", "Deliver", "fd00::1", "fd00::2%eth0"),
    ]


@pytest.mark.parametrize("src, dst", [("fd00::1%x\ty", "fd00::2%x\nz"),
                                      ("fd00::1%x\ty", "fd00::2"),
                                      ("fd00::1", "fd00::2%x\nz")],
                         ids=["both", "src", "dst"])
def test_an_injected_address_without_printable_trace_text_is_refused(src, dst, monkeypatch):
    # A tab or a newline in a trace field would split its record; the run
    # refuses before its first record.
    scenario = load_scenario(_v6_chain_doc())
    packet = make_packet(6, src, dst, 17, 64)
    recorded = []
    monkeypatch.setattr(engine._Sim, "_record", lambda *args: recorded.append(args))
    with pytest.raises(ValueError, match="has no printable trace text"):
        run(scenario.topology, [Injection("a", 0, make_packet(6, "fd00::1", "fd00::2", 17, 64)),
                                Injection("a", 0, packet)], 10)
    assert recorded == []


def _refused_injection(monkeypatch, node, time, error, message, packet=lambda good: good):
    # A good injection, then the hand-built one: the run refuses it before
    # its first record, naming its index and the bad value.
    scenario = load_scenario(json.loads((SCENARIOS / "end_host_tagging.json").read_text()))
    good = scenario.injections[0]
    recorded = []
    monkeypatch.setattr(engine._Sim, "_record", lambda *args: recorded.append(args))
    with pytest.raises(error) as raised:
        run(scenario.topology, [good, Injection(node, time, packet(good.packet))], 10)
    assert str(raised.value) == f"injection 1: {message}"
    assert recorded == []


@pytest.mark.parametrize("node", ["nope", ["h1"]], ids=["unknown", "unhashable"])
def test_an_injection_at_an_unknown_node_is_refused(node, monkeypatch):
    _refused_injection(monkeypatch, node, 0, ValueError, f"unknown node {node!r}")


def test_an_injection_at_a_negative_time_is_refused(monkeypatch):
    _refused_injection(monkeypatch, "h1", -1, ValueError, "time must be non-negative, got -1")


@pytest.mark.parametrize("time", [0.5, "0", True, None], ids=["float", "str", "bool", "none"])
def test_an_injection_time_that_is_not_an_integer_is_refused(time, monkeypatch):
    _refused_injection(monkeypatch, "h1", time, TypeError,
                       f"time must be an integer, got {time!r}")


@pytest.mark.parametrize("packet", [lambda good: None, tuple], ids=["none", "plain tuple"])
def test_an_injection_whose_packet_is_not_an_ip_packet_is_refused(packet, monkeypatch):
    # A packet is a tuple of its fields; the plain tuple of them is no packet.
    good = load_scenario(json.loads((SCENARIOS / "end_host_tagging.json").read_text()))
    shown = _show(packet(good.injections[0].packet))
    _refused_injection(monkeypatch, "h1", 0, TypeError,
                       f"packet must be an IpPacket, got {shown}", packet)


def test_a_rewrite_to_an_address_without_printable_trace_text_is_refused():
    # The render rule of an injected address holds for a rewritten one.
    doc = _v6_chain_doc()
    doc["injections"][0]["gvn"] = {"code": 42}
    scenario = load_scenario(doc)

    def scoped(header, packet, local):
        return PlAction.rewrite_and_forward(packet.with_dst(IPv6Address("fd00::2%x\ty")), header)

    scenario.topology.nodes["f"].registry.register(
        ProcessingLogicBinding(code=42, name="scoped", handler=scoped))
    with pytest.raises(ValueError, match="'fd00::2%x\\\\ty' has no printable trace text"):
        run(scenario.topology, scenario.injections, 10)


def test_an_action_of_unknown_kind_is_refused():
    # Not lost: a packet whose fate no action kind names would leave the run
    # without a trace record or a count.
    doc = three_node_doc()
    doc["nodes"][0]["kind"] = "gvn_end_host"
    doc["injections"][0]["gvn"] = {"code": 42}
    scenario = load_scenario(doc)
    scenario.topology.nodes["h1"].registry.register(ProcessingLogicBinding(
        code=42, name="bogus", handler=lambda header, packet, local: PlAction("bogus")))
    with pytest.raises(TypeError, match="^node 'h1', code 0x000000002a: action of unknown kind "
                                        "'bogus'$"):
        run(scenario.topology, scenario.injections, 10)


def _end_host_tagging_with(handler):
    # h1 injects a VPN-tagged packet, and its own registry binds no logic.
    scenario = load_scenario(json.loads((SCENARIOS / "end_host_tagging.json").read_text()))
    scenario.topology.nodes["h1"].registry.register(
        ProcessingLogicBinding(code=VPN_CODE, name="bad", handler=handler))
    return scenario


def _refused(scenario, what):
    with pytest.raises(TypeError) as raised:
        run(scenario.topology, scenario.injections, scenario.max_steps)
    assert str(raised.value) == f"node 'h1', code {VPN_CODE:#012x}: {what}"


def test_a_handler_result_that_is_not_an_action_is_refused():
    _refused(_end_host_tagging_with(lambda header, packet, local: None),
             "None is not a PlAction")


@pytest.mark.parametrize("next_hop", [None, ["r1"], b"r1"])
def test_a_forward_to_whose_next_hop_is_not_a_node_id_is_refused(next_hop):
    # None would forward by IP, and a list is not hashable.
    action = PlAction.forward_to(next_hop)
    _refused(_end_host_tagging_with(lambda header, packet, local: action),
             f"next hop {next_hop!r} is not a node id")


def test_a_rewrite_whose_packet_is_not_an_ip_packet_is_refused():
    def rewrite(header, packet, local):
        return PlAction.rewrite_and_forward(packet.to_bytes(), header)

    scenario = _end_host_tagging_with(rewrite)
    wire = scenario.injections[0].packet.to_bytes()
    _refused(scenario, f"rewritten packet {wire!r} is not an IpPacket")


def test_a_drop_whose_reason_is_not_a_drop_reason_is_refused():
    # The Drop record would read the reason's value, and the count its name.
    action = PlAction.drop("Policy")
    _refused(_end_host_tagging_with(lambda header, packet, local: action),
             "drop reason 'Policy' is not a DropReason")


@pytest.mark.parametrize("bogus", ["bogus", bytes([2, 17, 0, 0, 0, 0, 0, 1]), 42])
def test_a_rewrite_whose_header_is_not_a_gvn_header_is_refused(bogus):
    # The Rewrite record would read the header's code, and the forward carry it.
    def rewrite(header, packet, local):
        return PlAction.rewrite_and_forward(packet, bogus)

    _refused(_end_host_tagging_with(rewrite), f"rewritten header {bogus!r} is not a GvnHeader")


_TRACED_NOTES = {
    "drop": lambda header, packet, note: PlAction.drop(DropReason.POLICY, note),
    "deliver": lambda header, packet, note: PlAction.deliver(note),
    "rewrite": lambda header, packet, note: PlAction.rewrite_and_forward(packet, header, note),
}


@pytest.mark.parametrize("kind", sorted(_TRACED_NOTES))
@pytest.mark.parametrize("note", [b"x", 7, ["a"]])
def test_a_traced_note_that_is_not_text_is_refused(kind, note):
    make = _TRACED_NOTES[kind]
    _refused(_end_host_tagging_with(lambda header, packet, local: make(header, packet, note)),
             f"note {note!r} is not a str")


@pytest.mark.parametrize("kind", sorted(_TRACED_NOTES))
@pytest.mark.parametrize("note", ["a\tb\nc", "\n", "x\x00", "\u2028"])
def test_a_traced_note_that_would_split_its_trace_line_is_refused(kind, note):
    # A tab would add a field to the record's line, and a newline a line.
    make = _TRACED_NOTES[kind]
    scenario = _end_host_tagging_with(lambda header, packet, local: make(header, packet, note))
    with pytest.raises(ValueError) as raised:
        run(scenario.topology, scenario.injections, scenario.max_steps)
    assert str(raised.value) == f"node 'h1', code {VPN_CODE:#012x}: note {note!r} is not printable"


@pytest.mark.parametrize("kind", sorted(_TRACED_NOTES))
def test_a_traced_note_of_printable_text_is_traced(kind):
    make = _TRACED_NOTES[kind]
    scenario = _end_host_tagging_with(lambda header, packet, local: make(header, packet, "a b"))
    result = run(scenario.topology, scenario.injections, scenario.max_steps)
    assert "a b" in [record.diagnostic for record in result.records]


@pytest.mark.parametrize("note", ["a\tb\nc", b"x", 7])
def test_the_untraced_note_of_a_forward_is_not_checked(note):
    # A forward's record notes its link, never the action's note.
    def trace(action):
        scenario = _end_host_tagging_with(lambda header, packet, local: action)
        return format_text(run(scenario.topology, scenario.injections, scenario.max_steps).records)

    assert trace(PlAction.forward_by_ip(note)) == trace(PlAction.forward_by_ip())
    assert trace(PlAction.forward_to("r1", note)) == trace(PlAction.forward_to("r1"))


def test_a_built_node_refuses_rebinding():
    node = build_topology(edge_doc()).nodes["e2"]
    names = [f.name for f in dataclasses.fields(Node)] + ["decrements_ttl", "forwarding"]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, getattr(node, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        del node.pop_egress
    assert type(node.routing.entries) is tuple



@pytest.mark.parametrize("kind", list(NodeKind))
def test_a_node_is_capable_exactly_when_it_holds_a_registry(kind):
    legacy = kind in (NodeKind.LEGACY_HOST, NodeKind.LEGACY_ROUTER)
    given = PlRegistry()
    assert (Node("a", kind, []).registry is None) is legacy
    assert (Node("a", kind, [], registry=given).registry is given) is not legacy
    loaded = build_topology({"nodes": [{"id": "a", "kind": kind.value}]}).nodes["a"]
    assert (loaded.registry is None) is legacy


def _alone(kind, registry=None):
    """A hand-built node of ``kind`` that owns 10.0.0.1, alone in a topology."""
    return Topology(nodes={"a": Node("a", kind, [ip_address("10.0.0.1")], registry=registry)},
                    chains={})


def _code_42_to_a(flags):
    packet = make_packet(4, "10.0.0.9", "10.0.0.1", 17, 64, b"x")
    return push_gvn(packet, GvnHeader(packet.protocol, 42, flags))


@pytest.mark.parametrize("flags, drop, diagnostic", [
    (0, "Drop(UnknownTransport)", "protocol 254 has no handler"),
    (0x80, "Drop(UnknownCode)", None),
])
def test_a_hand_built_capable_node_drops_what_it_has_no_logic_for(flags, drop, diagnostic):
    result = run(_alone(NodeKind.GVN_ROUTER), [Injection("a", 0, _code_42_to_a(flags))], 10)
    assert [r.event for r in result.records] == ["Ingress", drop]
    if diagnostic is not None:
        assert result.records[-1].diagnostic == diagnostic


def test_a_legacy_router_given_a_registry_stays_legacy():
    topology = _alone(NodeKind.LEGACY_ROUTER, registry=PlRegistry())
    assert topology.nodes["a"].registry is None
    injections = [Injection("a", 0, _code_42_to_a(0x80))]
    records = run(topology, injections, 10).records
    # Flag bit 7 means nothing to a legacy stack: protocol 254 has no handler.
    assert [r.event for r in records] == ["Ingress", "Drop(UnknownTransport)"]
    assert records == run(_alone(NodeKind.LEGACY_ROUTER), injections, 10).records

def test_a_node_that_has_run_cannot_be_rerouted():
    # Its forwarding cache would go on sending packets by the old routes.
    scenario = load_scenario(json.loads((SCENARIOS / "nfv_chain.json").read_text()))
    want = format_text(run(scenario.topology, scenario.injections, scenario.max_steps).records)
    for node in scenario.topology.nodes.values():
        assert node.forwarding
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.routing = RoutingTable()
    got = run(scenario.topology, scenario.injections, scenario.max_steps)
    assert format_text(got.records) == want


def test_build_topology_builds_each_node_once(monkeypatch):
    built = []
    post_init = Node.__post_init__

    def counting(node):
        built.append(node)
        post_init(node)

    monkeypatch.setattr(Node, "__post_init__", counting)
    doc = json.loads((SCENARIOS / "nfv_chain.json").read_text())
    topology = build_topology(doc)
    assert built == list(topology.nodes.values())
    assert len(built) == len(doc["nodes"])


def test_shared_actions_records_and_classifications_refuse_assignment():
    assert PlAction.forward_by_ip() is PlAction.forward_by_ip()
    assert PlAction.deliver() is PlAction.deliver()
    assert PlAction.deliver("noted").note == "noted"
    for action in (PlAction.forward_by_ip(), PlAction.deliver()):
        with pytest.raises(AttributeError):
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
@example([TraceRecord(0, 0, "n", "Ingress", "a", "b", 0, None, 255, None),
          TraceRecord(1, 0, "n", "Drop(TtlExpired)", "a", "b", 255, 0, 0, None)])
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


def test_a_run_stores_each_record_as_a_plain_tuple(monkeypatch):
    # What the list holds, read past the views it hands out: a run builds
    # no TraceRecord.
    records = run(*_scenario_args(_mixed_fabric_doc(monkeypatch, 11))).records
    assert len(records) > 20_000
    assert all(type(row) is tuple and len(row) == len(TraceRecord._fields)
               for row in list.__iter__(records))


def _golden_records():
    return run(*_scenario_args(json.loads((SCENARIOS / "nfv_chain.json").read_text()))).records


def test_every_read_of_a_run_s_records_yields_a_trace_record():
    records = _golden_records()
    rows = list(list.__iter__(records))
    assert len(rows) > 4
    views = [records[0], records[-1], *records[1:4], *iter(records), *reversed(records),
             records.copy()[0], *list(records), *records.copy()]
    assert all(type(view) is TraceRecord for view in views)
    assert records[0] == rows[0] and records[-1] == rows[-1] and records[1:4] == rows[1:4]
    assert records[0] is not records[0]  # each read builds its own view
    assert list(reversed(records)) == rows[::-1]
    last = records.pop()
    assert type(last) is TraceRecord and last == rows[-1] and len(records) == len(rows) - 1


def test_a_run_s_records_keep_list_equality_and_copy_as_trace_records():
    records = _golden_records()
    text = format_text(records)
    assert records == [TraceRecord._make(row) for row in list.__iter__(records)]
    assert format_text(records) == format_text(list(records)) == text
    assert records[2] in records and records.index(records[2]) == 2
    assert records.count(records[2]) == 1
    for other in (pickle.loads(pickle.dumps(records)), copy.copy(records),
                  copy.deepcopy(records), records.copy()):
        assert other == records and len(other) == len(records)
        assert all(type(view) is TraceRecord for view in other)
        assert format_text(other) == text
    assert format_json(records) == format_json(list(records))


@pytest.mark.parametrize("name, seed", [(name, None) for name in sorted(
    p.stem for p in SCENARIOS.glob("*.json"))] + [("mixed_fabric", s) for s in (11, 41, 97)])
def test_every_arrival_has_one_final_record(name, seed, monkeypatch):
    # One Ingress, its pushes, pops and rewrites, then one Forward, Deliver
    # or Drop: a step that both forwarded and resolved a packet, or lost it
    # without a record, would break the grammar.
    doc = (_mixed_fabric_doc(monkeypatch, seed) if seed is not None
           else json.loads((SCENARIOS / f"{name}.json").read_text()))
    records = run(*_scenario_args(doc)).records
    assert records
    assert check_arrivals(records) == []


def _record(seq, time, node, event):
    return TraceRecord(seq, time, node, event, "10.0.0.1", "10.0.0.2", 17, None, 64, None)


@pytest.mark.parametrize("events, problem", [
    ([(0, "a", "Ingress"), (0, "a", "Forward"), (0, "a", "Forward")],
     "record 2: Forward outside an arrival"),
    ([(0, "a", "Ingress"), (0, "a", "Push"), (1, "b", "Ingress"), (1, "b", "Deliver")],
     "record 2: Ingress before the last arrival ended"),
    ([(0, "a", "Ingress"), (0, "b", "Forward"), (0, "a", "Forward")],
     "record 1: Forward at (0, 'b'), in an arrival at (0, 'a')"),
    ([(0, "a", "Ingress"), (0, "a", "Bounce"), (0, "a", "Drop(NoRoute)")],
     "record 1: unknown event 'Bounce'"),
    ([(0, "a", "Ingress"), (0, "a", "Pop")], "the arrival at (0, 'a') has no final record"),
])
def test_the_arrival_grammar_check_names_each_break(events, problem):
    records = [_record(seq, *event) for seq, event in enumerate(events)]
    assert check_arrivals(records) == [problem]
    assert check_arrivals(records[:1] + [_record(1, 0, "a", "Drop(Oversize)")]) == []


@pytest.mark.parametrize("name, seed", [(name, None) for name in sorted(
    p.stem for p in SCENARIOS.glob("*.json"))] + [("mixed_fabric", s) for s in (11, 41, 97)])
def test_each_steps_arrivals_run_in_lane_and_send_order(name, seed, monkeypatch):
    # Links have unit delay: a step's arrivals are its injections and the
    # step before's forwards, by lane and then in send order.  A bundled
    # scenario is checked on its golden JSON trace.
    if seed is None:
        topology, injections, max_steps = _scenario_args(
            json.loads((SCENARIOS / f"{name}.json").read_text()))
        records = [tuple(record.values())
                   for record in json.loads((GOLDEN / f"{name}.json").read_text())]
    else:
        topology, injections, max_steps = _scenario_args(_mixed_fabric_doc(monkeypatch, seed))
        records = run(topology, injections, max_steps).records
    assert records
    assert check_step_order(records, injections, max_steps) == []


@pytest.mark.parametrize("limit", [1, 2, 7, 30, 60])
def test_a_step_limit_ends_the_run_between_two_steps(limit, monkeypatch):
    # What is in flight is what the last step sent and every injection not yet entered.
    topology, injections, _max_steps = _scenario_args(_mixed_fabric_doc(monkeypatch, 11))
    result = run(topology, injections, limit)
    assert result.step_limit_exceeded and result.steps == limit
    assert check_step_order(result.records, injections, limit) == []
    assert result.in_flight == (
        sum(r.event == "Forward" and r.time == limit - 1 for r in result.records)
        + sum(injection.time >= limit for injection in injections)) > 0


def _lanes_doc():
    """Hosts " h" and "zh" behind r1, toward h2: the lane " h>r1" sorts
    before "!inject", and "zh>r1" after it."""
    host = {"kind": "legacy_host"}
    return {
        "nodes": [dict(host, id=" h", addresses=["10.0.0.1"]),
                  {"id": "r1", "kind": "legacy_router", "addresses": ["10.0.0.254"]},
                  dict(host, id="zh", addresses=["10.0.0.3"]),
                  dict(host, id="h2", addresses=["10.0.1.1"])],
        "links": [[" h", "r1"], ["zh", "r1"], ["r1", "h2"]],
        "routes": {" h": [{"prefix": "0.0.0.0/0", "next_hop": "r1"}],
                   "zh": [{"prefix": "0.0.0.0/0", "next_hop": "r1"}],
                   "r1": [{"prefix": "10.0.1.0/24", "next_hop": "h2"}]},
        "injections": [
            {"node": node, "time": time,
             "packet": {"version": 4, "src": src, "dst": "10.0.1.1", "protocol": 17, "ttl": 9}}
            for node, time, src in (("zh", 0, "10.0.0.3"), (" h", 0, "10.0.0.1"),
                                    ("r1", 1, "10.0.0.254"))],
    }


def test_a_lane_that_sorts_before_the_injection_lane_arrives_first():
    topology, injections, max_steps = _scenario_args(_lanes_doc())
    records = run(topology, injections, max_steps).records
    assert [(r.time, r.node, r.src) for r in records if r.event == "Ingress"] == [
        (0, "zh", "10.0.0.3"), (0, " h", "10.0.0.1"),
        (1, "r1", "10.0.0.1"), (1, "r1", "10.0.0.254"), (1, "r1", "10.0.0.3"),
        (2, "h2", "10.0.0.1"), (2, "h2", "10.0.0.254"), (2, "h2", "10.0.0.3")]
    assert check_step_order(records, injections) == []
    # The order of a scheduler that runs a step's injections first.
    injected = [r for r in records if r.time == 1 and r.src == "10.0.0.254"]
    first = next(i for i, r in enumerate(records) if r.time == 1)
    rest = [r for r in records if r not in injected]
    problems = check_step_order(rest[:first] + injected + rest[first:], injections)
    assert problems[0].startswith("record 6: r1 ('10.0.0.254', ")
    assert "where lane  h>r1 brings r1 ('10.0.0.1', " in problems[0]


# -- single-node processing ------------------------------------------------------------

def test_single_arrival_in_one_step():
    topology = build_topology(three_node_doc())
    packet = make_packet(4, "10.0.0.1", "10.0.0.254", 17, 64, b"to the router")
    result = run(topology, [Injection(node="r1", time=0, packet=packet)], 1)
    assert [r.event for r in result.records] == ["Ingress", "Deliver"]

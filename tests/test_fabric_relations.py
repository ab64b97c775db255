"""The paper's deployment claims as metamorphic relations over random
fabrics, and the simulator's carried-header invariant.

The fabrics are those of ``tests/test_fabric_fates.py``, together with the
benchmark's ``mixed_fabric`` documents.  No fate model is needed: each
relation compares two runs of the simulator.

* **The carried header and text.**  A packet's GVN header is parsed, and
  its addresses rendered as trace text, once, when the packet enters the
  run; both then travel with it on the event queue.  At every arrival the
  header must equal what a fresh parse of the packet finds, and the text
  what a fresh rendering of its addresses gives.
* **A. An idle capable router equals a legacy router.**  "An IP router that
  is not GVN capable will simply process the IP destination address as
  usual."  Turning every ``gvn_router`` that holds no logic and no flow rule
  into a ``legacy_router`` leaves the trace byte-identical for traffic whose
  tags have flag bit 7 (drop on unknown code) clear.
* **B. Edge tags are transparent.**  The header "can be pushed/popped at the
  edge of a GVN capable network (like a VLAN tag)".  When the core holds no
  logic and the edges push templates only, removing every edge policy leaves
  the multiset of deliveries, (node, wire bytes), unchanged for untagged
  traffic addressed to hosts.  A packet addressed to a node on the tagged
  path (an edge, a core router, a function) reaches it still tagged: that
  divergence is pinned below as it stands.
"""

import copy
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gvn.codec import classify
from gvn.sim import format_text, load_scenario, run
from gvn.sim.engine import _Sim

from .test_fabric_fates import ROOT, fabrics

SEEDS = (11, 41)


def _run(doc):
    scenario = load_scenario(json.loads(json.dumps(doc)))
    return run(scenario.topology, scenario.injections, scenario.max_steps)


def _mixed_fabric(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("workloads").SIM_WORKLOADS["mixed_fabric"](seed).doc


def _assert_same_trace(got, want):
    """Byte-identical traces, or a failure naming the first line that
    differs (a diff of two whole traces takes pytest minutes)."""
    got, want = format_text(got.records), format_text(want.records)
    if got != want:
        pairs = zip_longest(got.splitlines(), want.splitlines())
        first = next((g, w) for g, w in pairs if g != w)
        pytest.fail(f"traces differ first at\n  {first[0]}\n  {first[1]}")


@contextmanager
def _checked_arrivals():
    """Inside the block, every arrival checks its carried header against a
    fresh parse and its carried text against a fresh rendering.  Yields the
    ids of the nodes each tagged packet reached."""
    arrive = _Sim.arrive
    tagged_at = []

    def checked(self, time, node, packet, header, text):
        assert header == classify(packet).header, f"{node.id} at t={time}"
        assert text == (str(packet.src), str(packet.dst)), f"{node.id} at t={time}"
        if header is not None:
            tagged_at.append(node.id)
        return arrive(self, time, node, packet, header, text)

    with mock.patch.object(_Sim, "arrive", checked):
        yield tagged_at


# -- the carried header -------------------------------------------------------------

@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fabrics())
def test_carried_header_is_the_parsed_header_on_random_fabrics(case):
    fabric, injections, _predictions = case
    with _checked_arrivals():
        _run(fabric.document(injections, 10_000))


def test_carried_header_is_the_parsed_header_on_mixed_fabric(monkeypatch):
    # In the benchmark's batches of 32 injections over one loaded topology.
    doc = _mixed_fabric(monkeypatch, 11)
    scenario = load_scenario(json.loads(json.dumps(doc)))
    injections = scenario.injections
    with _checked_arrivals() as tagged_at:
        for start in range(0, len(injections), 32):
            run(scenario.topology, injections[start:start + 32], scenario.max_steps)
    # Headers were carried over many hops, through core and edge nodes.
    assert len(tagged_at) > 2 * len(injections)
    assert {"c0", "e0", "c1"} <= set(tagged_at)


# -- A: an idle capable router equals a legacy router -------------------------------

def _idle_as_legacy(doc):
    """``doc`` with every gvn_router that holds no logic and no flow rule
    turned into a legacy_router, and the ids of the converted nodes."""
    busy = set(doc["registries"]) | set(doc["flow_rules"])
    legacy = copy.deepcopy(doc)
    converted = []
    for node in legacy["nodes"]:
        if node["kind"] == "gvn_router" and node["id"] not in busy:
            node["kind"] = "legacy_router"
            converted.append(node["id"])
    return legacy, converted


def _bit_7_clear(doc):
    for injection in doc["injections"]:
        if "gvn" in injection:
            injection["gvn"]["flags"] = injection["gvn"].get("flags", 0) & 0x7F
    return doc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fabrics(), st.sets(st.integers(0, 4)))
def test_relation_a_idle_gvn_router_traces_as_legacy(case, idled):
    fabric, injections, _predictions = case
    for k in idled:  # strip the logics of some core routers, so more are idle
        node = fabric.nodes.get(f"c{k}")
        if node is not None:
            node.nfv, node.vpn_allowed, node.icn_table = False, None, None
    doc = _bit_7_clear(fabric.document(injections, 10_000))
    legacy, _converted = _idle_as_legacy(doc)
    _assert_same_trace(_run(legacy), _run(doc))


@pytest.mark.parametrize("seed", SEEDS)
def test_relation_a_on_mixed_fabric(monkeypatch, seed):
    # Every second core router is a gvn_router; strip their logics.
    doc = _bit_7_clear(copy.deepcopy(_mixed_fabric(monkeypatch, seed)))
    for node_id in [n for n in doc["registries"] if n.startswith("c")]:
        del doc["registries"][node_id]
    legacy, converted = _idle_as_legacy(doc)
    assert converted == ["c0", "c2", "c4", "c6"]
    idle = _run(doc)
    _assert_same_trace(_run(legacy), idle)
    # Tagged packets crossed the converted routers.
    assert any(r.node in converted and r.event == "Ingress" and r.code is not None
               for r in idle.records)


# -- B: edge tags are transparent ---------------------------------------------------

HOST_KINDS = ("legacy_host", "gvn_end_host")


def _logic_free_core(doc):
    """``doc`` with no logic in its core and template pushes only at its
    edges, and only its untagged injections not addressed to a router, an
    edge or a function."""
    doc = copy.deepcopy(doc)
    edges = set(doc["edge_policies"])
    doc["registries"] = {n: e for n, e in doc["registries"].items() if n in edges}
    for policy in doc["edge_policies"].values():
        policy["ingress"] = [rule for rule in policy["ingress"] if "push" in rule["action"]]
    on_path = {address for node in doc["nodes"] if node["kind"] not in HOST_KINDS
               for address in node["addresses"]}
    doc["injections"] = [i for i in doc["injections"]
                         if "gvn" not in i and i["packet"]["dst"] not in on_path]
    return doc


def _bare(doc):
    """``doc`` with every edge policy removed."""
    return dict(doc, edge_policies={})


def _deliveries(result):
    return Counter((node, packet.to_bytes()) for node, packet in result.delivered_packets)


def _pushes(result):
    return sum(1 for r in result.records if r.event == "Push")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fabrics())
def test_relation_b_edge_tags_are_transparent(case):
    fabric, injections, _predictions = case
    doc = _logic_free_core(fabric.document(injections, 10_000))
    assert _deliveries(_run(_bare(doc))) == _deliveries(_run(doc))


@pytest.mark.parametrize("seed", SEEDS)
def test_relation_b_on_mixed_fabric(monkeypatch, seed):
    doc = _logic_free_core(_mixed_fabric(monkeypatch, seed))
    tagged, bare = _run(doc), _run(_bare(doc))
    assert _pushes(tagged) > 0 and _pushes(bare) == 0
    assert _deliveries(bare) == _deliveries(tagged)


def _edge_pair_doc(dst):
    """h1 - e1 - r - e2 - h2: e1 tags TCP from 10.1/16 with a VPN template,
    e2 pops tags bound for 10.2/16; one TCP packet from h1 to ``dst``."""
    edge = {"ingress": [{"match": {"src_prefix": "10.1.0.0/16", "protocol": 6},
                         "action": {"push": {"code": 0x56504E, "pl_data_hex": "00000001"}}}],
            "pop_egress": []}
    return {
        "nodes": [{"id": "h1", "kind": "legacy_host", "addresses": ["10.1.0.1"]},
                  {"id": "e1", "kind": "gvn_edge", "addresses": ["10.1.255.254"]},
                  {"id": "r", "kind": "legacy_router", "addresses": ["10.0.0.254"]},
                  {"id": "e2", "kind": "gvn_edge", "addresses": ["10.2.255.254"]},
                  {"id": "h2", "kind": "legacy_host", "addresses": ["10.2.0.1"]}],
        "links": [["h1", "e1"], ["e1", "r"], ["r", "e2"], ["e2", "h2"]],
        "routes": {"h1": [{"prefix": "0.0.0.0/0", "next_hop": "e1"}],
                   "e1": [{"prefix": "0.0.0.0/0", "next_hop": "r"}],
                   "r": [{"prefix": "10.1.0.0/16", "next_hop": "e1"},
                         {"prefix": "10.2.0.0/16", "next_hop": "e2"}],
                   "e2": [{"prefix": "10.2.0.1/32", "next_hop": "h2"},
                          {"prefix": "0.0.0.0/0", "next_hop": "r"}]},
        "edge_policies": {"e1": edge,
                          "e2": dict(edge, ingress=[], pop_egress=["10.2.0.0/16"])},
        "injections": [{"node": "h1", "time": 0, "packet": {
            "version": 4, "src": "10.1.0.1", "dst": dst, "protocol": 6, "ttl": 64,
            "payload_hex": "00"}}],
    }


@pytest.mark.parametrize("dst, node", [("10.2.0.1", "h2"), ("10.2.255.254", "e2"),
                                       ("10.0.0.254", "r")])
def test_relation_b_divergence_for_nodes_on_the_tagged_path(dst, node):
    # Pinned as it stands.  Behind the far edge the tag is popped, and h2
    # gets the packet either way.  A packet for a node on the tagged path
    # arrives still tagged and is dropped as an unknown transport, even at
    # e2, whose own address lies inside its pop prefix: a tag is popped
    # only on the way out, never before a local delivery.
    doc = _edge_pair_doc(dst)
    untagged, tagged = _run(_bare(doc)).records[-1], _run(doc).records[-1]
    assert (untagged.node, untagged.event) == (node, "Deliver")
    assert (tagged.node, tagged.event) == (
        node, "Deliver" if node == "h2" else "Drop(UnknownTransport)")

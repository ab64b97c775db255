"""The one local-delivery test, ``LocalAddresses.has_dst``, and the costs the
packet path no longer pays.

``10.0.0.1`` and ``::a00:1`` are the same integer.  A node owning one must
not take a packet addressed to the other, on every path that asks whether a
packet is addressed to a node: the simulator's forwarding, the dispatch
fall-through, the chaining logic and the scan of a routeless node's
neighbours.
"""

import enum
import importlib
import ipaddress
import json
import random
import sys
from ipaddress import ip_address, ip_network
from pathlib import Path

import pytest

from gvn.framework import ActionKind, DropReason, LocalAddresses, PlRegistry
from gvn.logics import ServiceChain, make_nfv_handler, nfv_encap
from gvn.packet import IpPacket, make_packet
from gvn.sim import build_topology, format_text, load_scenario, run
from gvn.sim.topology import Injection, PrefixTable, RoutingTable

ROOT = Path(__file__).resolve().parent.parent
V4, V6 = "10.0.0.1", "::a00:1"
TWINS = [(V4, V6), (V6, V4)]  # (destination, the other family's twin)


def _packet(dst):
    src = "10.9.9.9" if ":" not in dst else "fd00::9"
    return make_packet(4 if ":" not in dst else 6, src, dst, 17, 64, b"x")


def _finals(result):
    return [(r.node, r.event) for r in result.records
            if r.event == "Deliver" or r.event.startswith("Drop(")]


def test_the_families_of_one_integer_stay_apart():
    assert int(ip_address(V4)) == int(ip_address(V6))


@pytest.mark.parametrize("dst, twin", TWINS)
def test_engine_forwards_past_the_twin_owner(dst, twin):
    # a owns the twin; the packet must pass it and reach b.
    topology = build_topology({
        "nodes": [{"id": "a", "kind": "legacy_router", "addresses": [twin]},
                  {"id": "b", "kind": "legacy_host", "addresses": [dst]}],
        "links": [["a", "b"]],
        "routes": {"a": [{"prefix": "0.0.0.0/0", "next_hop": "b"},
                         {"prefix": "::/0", "next_hop": "b"}]},
    })
    result = run(topology, [Injection("a", 0, _packet(dst))], 10)
    assert _finals(result) == [("b", "Deliver")]


@pytest.mark.parametrize("dst, twin", TWINS)
def test_dispatch_fall_through_keeps_the_families_apart(dst, twin):
    packet = _packet(dst)
    registry = PlRegistry()
    at_twin = registry.dispatch(None, packet, LocalAddresses({ip_address(twin)}))
    at_owner = registry.dispatch(None, packet, LocalAddresses({ip_address(dst)}))
    assert at_twin.kind is ActionKind.FORWARD_BY_IP
    assert at_owner.kind is ActionKind.DELIVER_LOCAL


@pytest.mark.parametrize("dst, twin", TWINS)
def test_nfv_handler_and_step_keep_the_families_apart(dst, twin):
    chain = ServiceChain(spi=5, functions=(ip_address(dst),))
    steered, header = nfv_encap(_packet("10.0.5.5" if ":" not in dst else "fd00::5"), chain)
    assert steered.dst == ip_address(dst)
    handler = make_nfv_handler({5: chain}).handler
    at_twin = LocalAddresses({ip_address(twin)})
    at_owner = LocalAddresses({ip_address(dst)})
    assert handler(header, steered, at_twin).kind is ActionKind.FORWARD_BY_IP
    assert handler(header, steered, at_owner).kind is ActionKind.REWRITE_AND_FORWARD


@pytest.mark.parametrize("dst, twin", TWINS)
def test_routeless_scan_passes_the_twin_owner(dst, twin):
    # a has no routes; of its neighbours b (first in order) owns the twin
    # and c the destination.
    topology = build_topology({
        "nodes": [{"id": "a", "kind": "legacy_host", "addresses": ["10.7.7.7"]},
                  {"id": "b", "kind": "legacy_host", "addresses": [twin]},
                  {"id": "c", "kind": "legacy_host", "addresses": [dst]}],
        "links": [["a", "b"], ["a", "c"]],
    })
    result = run(topology, [Injection("a", 0, _packet(dst))], 10)
    assert _finals(result) == [("c", "Deliver")]


# -- what a run no longer does -------------------------------------------------------

def _mixed_fabric(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    doc = workloads.SIM_WORKLOADS["mixed_fabric"](seed).doc
    return load_scenario(json.loads(json.dumps(doc)))


def test_run_hashes_no_address_and_no_enum(monkeypatch):
    scenario = _mixed_fabric(monkeypatch, 11)
    counts = {}

    def counting(cls):
        original = cls.__hash__

        def __hash__(self):
            counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
            return original(self)

        monkeypatch.setattr(cls, "__hash__", __hash__)

    for cls in (ipaddress.IPv4Address, ipaddress.IPv6Address, enum.Enum):
        counting(cls)
    hash(ipaddress.IPv4Address(V4)), hash(DropReason.POLICY)
    assert counts == {"IPv4Address": 1, "Enum": 1}  # the wrappers count
    counts.clear()
    result = run(scenario.topology, scenario.injections, scenario.max_steps)
    assert result.injected == 1024 and not result.step_limit_exceeded
    assert counts == {}


def _counting_renders(monkeypatch):
    """A list of the addresses IPv4Address.__str__ and IPv6Address.__str__
    render, in call order."""
    rendered = []

    def counting(cls):
        original = cls.__str__

        def __str__(self):
            rendered.append(self)
            return original(self)

        monkeypatch.setattr(cls, "__str__", __str__)

    for cls in (ipaddress.IPv4Address, ipaddress.IPv6Address):
        counting(cls)
    assert (str(ip_address(V4)), f"{ip_address(V6)}") == (V4, V6)
    assert len(rendered) == 2  # the wrappers count
    rendered.clear()
    return rendered


def _chain_exits(result):
    return [r for r in result.records if r.event == "Rewrite" and " si=0 restored " in r.diagnostic]


def test_a_run_renders_only_the_destinations_chain_exits_restore(monkeypatch):
    # Every other address's text was made when the topology was loaded.
    scenario = _mixed_fabric(monkeypatch, 11)
    rendered = _counting_renders(monkeypatch)
    result = run(scenario.topology, scenario.injections, scenario.max_steps)
    renders = list(rendered)
    exits = _chain_exits(result)
    assert len(exits) == 224
    # Once per exit, for the Rewrite note: the trace column takes the text
    # the topology loaded for the restored value.
    assert sorted(map(str, renders)) == sorted(r.dst for r in exits)


def test_a_one_packet_run_renders_nothing_unless_it_ends_a_chain(monkeypatch):
    scenario = _mixed_fabric(monkeypatch, 11)
    rendered = _counting_renders(monkeypatch)
    renders, exits = [], []
    for injection in scenario.injections:
        rendered.clear()
        result = run(scenario.topology, [injection], scenario.max_steps)
        renders.append(len(rendered))
        exits.append(len(_chain_exits(result)))
    assert renders == exits
    assert exits.count(0) > 700


def _counting_rng(monkeypatch):
    built = []

    class Random(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Random)
    return built


def test_a_run_that_never_draws_builds_no_rng(monkeypatch):
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    loaded = [load_scenario(json.loads(path.read_text())) for path in scenarios]
    loaded.append(_mixed_fabric(monkeypatch, 11))
    built = _counting_rng(monkeypatch)
    for scenario in loaded:
        run(scenario.topology, scenario.injections, scenario.max_steps)
    assert built == []


def _counting_post_init(monkeypatch):
    """A list that grows by one on every IpPacket.__post_init__ call."""
    calls = []
    original = IpPacket.__post_init__

    def __post_init__(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(IpPacket, "__post_init__", __post_init__)
    make_packet(4, V4, V4, 17, 64)
    assert len(calls) == 1  # the wrapper counts
    calls.clear()
    return calls


def test_a_wire_pass_runs_no_full_packet_check(monkeypatch):
    # from_bytes, classify, pop or push, to_bytes: each step checks only the
    # fields it sets, so none builds through the constructor's check.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    measure = importlib.import_module("measure")
    stream = workloads.wire_tagging(1)
    calls = _counting_post_init(monkeypatch)
    assert measure.wire_pass(stream, []) == 0
    assert calls == []


def test_a_run_runs_no_full_packet_check(monkeypatch):
    scenario = _mixed_fabric(monkeypatch, 11)
    calls = _counting_post_init(monkeypatch)
    result = run(scenario.topology, scenario.injections, scenario.max_steps)
    assert result.injected == 1024 and not result.step_limit_exceeded
    assert calls == []


def test_an_arrival_runs_at_most_9_python_calls(monkeypatch):
    # Every Python frame a seed-11 mixed_fabric run enters, as sys.setprofile
    # reports it, per node arrival.  The forward step is one frame per hop,
    # route decisions come from each node's forwarding cache after its first
    # miss, and a packet copy, a local delivery and a chain step build their
    # result in their own frame, without a frame that only hands a value on.
    # A transit of a logic's code goes from dispatch straight to the forward
    # step, and a chain step makes one packet copy.
    scenario = _mixed_fabric(monkeypatch, 11)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run(scenario.topology, scenario.injections, scenario.max_steps)
    finally:
        sys.setprofile(previous)
    arrivals = sum(record.event == "Ingress" for record in result.records)
    assert arrivals == 10_010
    assert calls / arrivals <= 9, f"{calls} calls for {arrivals} arrivals"


SCENARIO_NAMES = sorted(path.stem for path in (ROOT / "scenarios").glob("*.json"))


@pytest.mark.parametrize("name", SCENARIO_NAMES + ["mixed_fabric"])
def test_a_warm_forwarding_cache_changes_no_trace_and_skips_the_route_lookup(name, monkeypatch):
    # A topology run twice routes the second run from its nodes' forwarding
    # caches alone, and each run's trace is the one a fresh load gives.
    def load():
        if name == "mixed_fabric":
            return _mixed_fabric(monkeypatch, 11)
        return load_scenario(json.loads((ROOT / "scenarios" / f"{name}.json").read_text()))

    def trace(scenario):
        result = run(scenario.topology, scenario.injections, scenario.max_steps)
        return format_text(result.records)

    scenario = load()
    cold = trace(scenario)
    lookups = []
    original = RoutingTable.lookup

    def lookup(table, addr):
        lookups.append(addr)
        return original(table, addr)

    monkeypatch.setattr(RoutingTable, "lookup", lookup)
    warm = trace(scenario)
    assert lookups == []
    fresh = trace(load())
    assert lookups  # the counter sees a fresh topology's misses
    assert cold == warm == fresh


def test_prefix_lookup_reads_no_version_property(monkeypatch):
    # ``version`` is a Python property of every address; the table keys its
    # probes by the address's type instead.
    table = PrefixTable([(ip_network("10.0.0.0/8"), "v4"), (ip_network("::/0"), "v6")])
    reads = []

    def counting(cls):
        version = cls.__dict__["version"]

        def read(self):
            reads.append(cls.__name__)
            return version.fget(self)

        monkeypatch.setattr(cls, "version", property(read))

    for cls in (ipaddress._BaseV4, ipaddress._BaseV6):
        counting(cls)
    assert (ip_address(V4).version, ip_address(V6).version) == (4, 6)
    assert reads == ["_BaseV4", "_BaseV6"]  # the wrappers count
    reads.clear()
    assert table.lookup(ip_address(V4)) == "v4"
    assert table.lookup(ip_address(V6)) == "v6"
    assert table.lookup(ip_address("192.0.2.1")) is None
    assert reads == []

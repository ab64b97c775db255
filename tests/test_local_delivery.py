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
from ipaddress import ip_address
from pathlib import Path

import pytest

from gvn.framework import ActionKind, DropReason, LocalAddresses, PlRegistry
from gvn.logics import ChainHop, ServiceChain, make_nfv_handler, nfv_encap
from gvn.packet import make_packet
from gvn.sim import build_topology, load_scenario, run
from gvn.sim.topology import Injection

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
    chain = ServiceChain(spi=5, functions=(ChainHop(ip_address(dst), "f"),))
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

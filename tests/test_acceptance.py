"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import itertools
import json
import random
import sys
import time
from contextlib import contextmanager
from ipaddress import ip_address
from pathlib import Path

import pytest

from gvn import codec, errors
from gvn.cli import main as cli_main
from gvn.codec import (
    CODE_MAX,
    GVN_PROTOCOL,
    GvnHeader,
    parse_gvn,
    pop_gvn,
    push_gvn,
    serialize_gvn,
)
from gvn.logics import ChainHop, ServiceChain, make_nfv_handler, nfv_encap, nfv_step
from gvn.framework import ActionKind, LocalAddresses
from gvn.packet import IpPacket, ipv4_header_checksum, make_packet
from gvn.sim import load_scenario, run
from gvn.sim.trace import format_json, format_text

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

from .oracles import checksum_loop, random_ipv4_header


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {description}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {description}: PASS")


def _scenario(name):
    return load_scenario(json.loads((SCENARIOS / name).read_text()))


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_header_bounds():
    with criterion(1, "header length bounds 8..1016, reserved 255"):
        start = time.perf_counter()
        for length_units in range(256):
            total = 4 * length_units
            wire = bytes([length_units, 17, 0]) + bytes(max(total, 8) - 3)
            if length_units in (0, 1):
                with pytest.raises(errors.InvalidLength):
                    parse_gvn(wire)
            elif length_units == 255:
                with pytest.raises(errors.ReservedLength):
                    parse_gvn(wire)
            else:
                header = parse_gvn(wire)
                assert 8 <= header.total_length <= 1016
                assert header.total_length == total
                assert serialize_gvn(header) == wire[:total]
        # the serializer can never emit a rejected length either
        assert GvnHeader(next_header=17, code=1, pl_data=bytes(1008)).length_units == 254
        with pytest.raises(errors.InvalidHeader):
            GvnHeader(next_header=17, code=1, pl_data=bytes(1012))
        assert time.perf_counter() - start < 1.0


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_code_space():
    with criterion(2, "40-bit code space round trip"):
        start = time.perf_counter()
        rng = random.Random(2)
        codes = [0, 1, CODE_MAX] + [rng.randrange(CODE_MAX + 1) for _ in range(10_000)]
        for code in codes:
            header = GvnHeader(next_header=6, code=code)
            assert parse_gvn(serialize_gvn(header)).code == code
        assert time.perf_counter() - start < 1.0


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_push_pop_inverse():
    with criterion(3, "push/pop inverse over 10^4 random pairs"):
        start = time.perf_counter()
        rng = random.Random(3)
        for index in range(10_000):
            version = 4 if index % 2 == 0 else 6
            if version == 4:
                src = ip_address(rng.randrange(1, 1 << 32))
                dst = ip_address(rng.randrange(1, 1 << 32))
            else:
                src = ip_address(rng.randrange(1, 1 << 128))
                dst = ip_address(rng.randrange(1, 1 << 128))
            packet = IpPacket(
                version=version, src=src, dst=dst,
                protocol=rng.choice([1, 6, 17, 58, 132]),
                ttl=rng.randrange(1, 256),
                payload=rng.randbytes(rng.randrange(0, 1401)),
            )
            pl_len = 4 * rng.randrange(0, 32)
            header = GvnHeader(next_header=packet.protocol,
                               code=rng.randrange(CODE_MAX + 1),
                               flags=rng.randrange(256),
                               pl_data=rng.randbytes(pl_len))
            tagged = push_gvn(packet, header)
            if version == 4:
                wire = tagged.header_bytes
                zeroed = wire[:10] + b"\x00\x00" + wire[12:]
                assert checksum_loop(zeroed) == int.from_bytes(wire[10:12], "big")
            popped, recovered = pop_gvn(tagged)
            assert recovered == header
            assert popped.to_bytes() == packet.to_bytes()
        assert time.perf_counter() - start < 10.0


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_legacy_transparency():
    with criterion(4, "tagged packet unchanged across 5 legacy hops"):
        scenario = _scenario("end_host_tagging.json")
        result = run(scenario.topology, scenario.injections, scenario.max_steps)
        again = run(scenario.topology, scenario.injections, scenario.max_steps)
        assert format_text(result.records) == format_text(again.records)
        injected = scenario.injections[0].packet
        node, delivered = result.delivered_packets[0]
        assert node == "h2"
        # bytes from the GVN header onward are untouched
        assert delivered.payload == injected.payload
        # exactly five TTL decrements, one per router, and nothing else
        assert delivered.ttl == injected.ttl - 5
        assert delivered.to_bytes() == injected.with_ttl(delivered.ttl).to_bytes()
        hops = [r.ttl for r in result.records if r.event == "Forward"]
        assert hops == [64, 63, 62, 61, 60, 59]


BUNDLED = sorted(p.stem for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_matches_golden_trace(name):
    # Every bundled scenario has a golden trace, in text and in JSON, so a
    # refactor of the simulator is checked byte for byte.
    scenario = _scenario(f"{name}.json")
    result = run(scenario.topology, scenario.injections, scenario.max_steps)
    assert format_text(result.records) == (GOLDEN / f"{name}.trace").read_text()
    assert format_json(result.records) == (GOLDEN / f"{name}.json").read_text()


def _count_calls(monkeypatch, function):
    """Wrap ``function`` wherever a gvn module binds it; returns the list
    that grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "gvn" or name.startswith("gvn.")):
            for key, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.mark.parametrize("name", BUNDLED)
def test_one_header_parse_per_arrival(name, monkeypatch):
    scenario = _scenario(f"{name}.json")
    parses = _count_calls(monkeypatch, codec.parse_gvn)
    classifications = _count_calls(monkeypatch, codec.classify)
    result = run(scenario.topology, scenario.injections, scenario.max_steps)
    arrivals = [r for r in result.records if r.event == "Ingress"]
    assert len(classifications) == len(arrivals)
    # only the classification of a protocol-254 arrival parses a header
    assert len(parses) == sum(1 for r in arrivals if r.protocol == GVN_PROTOCOL)


# -- 5 -----------------------------------------------------------------------

def _matrix_doc(kind):
    return {
        "nodes": [
            {"id": "x", "kind": kind, "addresses": ["10.0.0.254"]},
            {"id": "n1", "kind": "legacy_host", "addresses": ["10.0.1.1"]},
        ],
        "links": [["x", "n1"]],
        "routes": {"x": [{"prefix": "10.0.1.0/24", "next_hop": "n1"}]},
        "registries": {"x": [{"pl": "vpn", "allowed": [10]}]} if kind == "gvn_router" else {},
        "injections": [],
    }


def test_criterion_5_receive_matrix():
    with criterion(5, "receive matrix over node kind x locality x code"):
        local, other = "10.0.0.254", "10.0.1.1"
        known, unknown = "vpn", 0x77777
        expected = {
            ("legacy_router", local, known): "Drop(UnknownTransport)",
            ("legacy_router", local, unknown): "Drop(UnknownTransport)",
            ("legacy_router", other, known): "Forward",
            ("legacy_router", other, unknown): "Forward",
            ("gvn_router", local, known): "Deliver",
            ("gvn_router", local, unknown): "Drop(UnknownTransport)",
            ("gvn_router", other, known): "Forward",
            ("gvn_router", other, unknown): "Forward",
        }
        for (kind, dst, code), want in expected.items():
            doc = _matrix_doc(kind)
            doc["injections"] = [{
                "node": "x", "time": 0,
                "packet": {"version": 4, "src": "10.0.9.9", "dst": dst,
                           "protocol": 17, "ttl": 64, "payload_hex": "00"},
                "gvn": {"code": code, "pl": {"kind": "vpn", "vnid": 10}},
            }]
            scenario = load_scenario(doc)
            result = run(scenario.topology, scenario.injections, 2)
            got = result.records[1].event
            assert got == want, f"{kind}/{dst}/{code}: {got} != {want}"

        # differential comparison: unknown code at a bare GVN node leaves a
        # trace identical to the legacy node's
        traces = []
        for kind in ("legacy_router", "gvn_router"):
            doc = _matrix_doc(kind)
            doc["registries"] = {}
            doc["injections"] = [{
                "node": "x", "time": 0,
                "packet": {"version": 4, "src": "10.0.9.9", "dst": other,
                           "protocol": 17, "ttl": 64, "payload_hex": "00"},
                "gvn": {"code": unknown, "flags": 0, "pl": {"kind": "vpn", "vnid": 10}},
            }]
            scenario = load_scenario(doc)
            result = run(scenario.topology, scenario.injections, 10)
            traces.append(format_text(result.records))
        assert traces[0] == traces[1]


# -- 6 -----------------------------------------------------------------------

def _chain_doc(n):
    nodes = [
        {"id": "h1", "kind": "legacy_host", "addresses": ["10.0.0.1"]},
        {"id": "e1", "kind": "gvn_edge", "addresses": ["10.0.0.254"]},
        {"id": "r1", "kind": "legacy_router", "addresses": ["10.9.0.1"]},
        {"id": "h2", "kind": "legacy_host", "addresses": ["10.0.2.1"]},
    ]
    links = [["h1", "e1"], ["e1", "r1"], ["r1", "h2"]]
    routes = {
        "h1": [{"prefix": "0.0.0.0/0", "next_hop": "e1"}],
        "e1": [{"prefix": "0.0.0.0/0", "next_hop": "r1"},
               {"prefix": "10.0.0.0/24", "next_hop": "h1"}],
        "r1": [{"prefix": "10.0.2.0/24", "next_hop": "h2"},
               {"prefix": "10.0.0.0/24", "next_hop": "e1"}],
        "h2": [{"prefix": "0.0.0.0/0", "next_hop": "r1"}],
    }
    functions = []
    for i in range(1, n + 1):
        fid, addr = f"f{i}", f"10.1.0.{i}"
        nodes.append({"id": fid, "kind": "nfv_function", "addresses": [addr]})
        links.append(["r1", fid])
        routes["r1"].insert(0, {"prefix": f"{addr}/32", "next_hop": fid})
        routes[fid] = [{"prefix": "0.0.0.0/0", "next_hop": "r1"}]
        functions.append({"address": addr, "node": fid})
    return {
        "nodes": nodes, "links": links, "routes": routes,
        "chains": [{"spi": 7, "functions": functions}],
        "edge_policies": {"e1": {"ingress": [{
            "match": {"dst_prefix": "10.0.2.0/24", "protocol": 17},
            "action": {"encap_chain": 7}}]}},
        "injections": [{"node": "h1", "time": 0,
                        "packet": {"version": 4, "src": "10.0.0.1", "dst": "10.0.2.1",
                                   "protocol": 17, "ttl": 64,
                                   "payload_hex": "636861696e"}}],
    }


def test_criterion_6_nfv_chain_end_to_end():
    with criterion(6, "service chains of length 1..4 restore the packet"):
        start = time.perf_counter()
        for n in range(1, 5):
            # pure chain composition, no routers: strictly byte-identical
            chain = ServiceChain(spi=7, functions=tuple(
                ChainHop(ip_address(f"10.1.0.{i + 1}"), f"f{i + 1}") for i in range(n)))
            original = make_packet(4, "10.0.0.1", "10.0.2.1", 17, 64, b"chain")
            current, header = nfv_encap(original, chain)
            for hop in chain.functions:
                action = nfv_step(header, current, {7: chain})
                assert action.kind is ActionKind.REWRITE_AND_FORWARD
                current, header = action.packet, action.header
            assert current.to_bytes() == original.to_bytes()

            # simulated chain with a legacy router between every hop
            scenario = load_scenario(_chain_doc(n))
            result = run(scenario.topology, scenario.injections, 100)
            assert result.delivered == 1
            injected = scenario.injections[0].packet
            node, delivered = result.delivered_packets[0]
            assert node == "h2"
            router_hops = sum(1 for r in result.records
                              if r.node == "r1" and r.event == "Forward")
            assert router_hops == n + 1
            assert delivered.ttl == injected.ttl - router_hops
            # byte-identical once the mandated router TTL decrements (and the
            # checksum they imply) are accounted for
            assert delivered.to_bytes() == injected.with_ttl(delivered.ttl).to_bytes()
            # strictly decreasing si, functions traversed in chain order
            rewrites = [r for r in result.records if r.event == "Rewrite"]
            assert [r.node for r in rewrites] == [f"f{i}" for i in range(1, n + 1)]
            sis = [int(r.diagnostic.split("si=")[1].split(" ")[0]) for r in rewrites]
            assert sis == list(range(n - 1, -1, -1))

        # brute force: no out-of-order traversal ever reaches the restored state
        for n in range(1, 5):
            chain = ServiceChain(spi=7, functions=tuple(
                ChainHop(ip_address(f"10.1.0.{i + 1}"), f"f{i + 1}") for i in range(n)))
            original = make_packet(4, "10.0.0.1", "10.0.2.1", 17, 64, b"chain")
            handler = make_nfv_handler({7: chain}).handler
            finishers = []
            for order in itertools.permutations(range(n)):
                current, header = nfv_encap(original, chain)
                done = False
                for index in order:
                    if current.protocol != GVN_PROTOCOL:
                        break
                    local = LocalAddresses({chain.functions[index].address})
                    action = handler(header, current, local)
                    if action.kind is not ActionKind.REWRITE_AND_FORWARD:
                        break
                    current, header = action.packet, action.header
                    done = current.protocol != GVN_PROTOCOL
                if done:
                    finishers.append(order)
            assert finishers == [tuple(range(n))]
        assert time.perf_counter() - start < 5.0


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_vpn_separation():
    with criterion(7, "no disallowed vnid is forwarded past a checker"):
        start = time.perf_counter()
        for allowed in ([], [10], [10, 20]):
            for vnid in range(16):
                doc = {
                    "nodes": [
                        {"id": "h1", "kind": "gvn_end_host", "addresses": ["172.16.1.1"]},
                        {"id": "g1", "kind": "gvn_router", "addresses": ["172.16.0.1"]},
                        {"id": "h2", "kind": "gvn_end_host", "addresses": ["172.16.2.1"]},
                    ],
                    "links": [["h1", "g1"], ["g1", "h2"]],
                    "routes": {
                        "h1": [{"prefix": "0.0.0.0/0", "next_hop": "g1"}],
                        "g1": [{"prefix": "172.16.2.0/24", "next_hop": "h2"},
                               {"prefix": "172.16.1.0/24", "next_hop": "h1"}],
                        "h2": [{"prefix": "0.0.0.0/0", "next_hop": "g1"}],
                    },
                    "registries": {
                        "g1": [{"pl": "vpn", "allowed": allowed}],
                        "h2": [{"pl": "vpn", "allowed": list(range(16))}],
                    },
                    "injections": [{
                        "node": "h1", "time": 0,
                        "packet": {"version": 4, "src": "172.16.1.1",
                                   "dst": "172.16.2.1", "protocol": 17,
                                   "ttl": 64, "payload_hex": "aa"},
                        "gvn": {"code": "vpn", "pl": {"kind": "vpn", "vnid": vnid}},
                    }],
                }
                scenario = load_scenario(doc)
                result = run(scenario.topology, scenario.injections, 10)
                forwarded = any(r.node == "g1" and r.event == "Forward"
                                for r in result.records)
                if vnid in allowed:
                    assert forwarded and result.delivered == 1
                else:
                    assert not forwarded and result.delivered == 0
                    assert result.dropped["VpnViolation"] == 1
        assert time.perf_counter() - start < 5.0


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_checksum_oracle_equivalence():
    with criterion(8, "checksum matches the independent loop oracle"):
        # worked example computed by the oracle before the build
        header = bytes.fromhex("450000730000400040110000c0a80001c0a800c7")
        assert checksum_loop(header) == 0xB861
        assert ipv4_header_checksum(header) == 0xB861
        rng = random.Random(8)
        for _ in range(1000):
            candidate = random_ipv4_header(rng)
            assert ipv4_header_checksum(candidate) == checksum_loop(candidate)


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_scenario_determinism(tmp_path, capsys):
    with criterion(9, "every bundled scenario is run-to-run deterministic"):
        scenarios = sorted(SCENARIOS.glob("*.json"))
        assert len(scenarios) == 5
        for scenario in scenarios:
            first = tmp_path / (scenario.stem + ".a")
            second = tmp_path / (scenario.stem + ".b")
            assert cli_main(["run", "--scenario", str(scenario),
                             "--trace", str(first)]) == 0
            assert cli_main(["run", "--scenario", str(scenario),
                             "--trace", str(second)]) == 0
            assert cli_main(["diff-trace", str(first), str(second)]) == 0
        capsys.readouterr()  # swallow the CLI reports, keep the PASS line visible

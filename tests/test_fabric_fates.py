"""Random fabrics checked against the benchmark's independent fate model.

A hypothesis strategy builds ``Fabric``s of ``bench/model.py``: a line or a
ring of one to five core routers, legacy and GVN mixed, and two edge domains
of hosts behind ``gvn_edge`` nodes that push VPN tags on ingress and pop them
on egress, and may steer UDP for the other domain into a service chain of
one or two function nodes.  GVN routers may hold VPN allow-lists, ICN tag
tables and the chaining logic, hosts may be IPv4, IPv6 or both and may have
no routes, and packets carry TTLs from 1 to 64, VPN, ICN or unknown-code
tags (flag bit 7 set or clear), or none.  The simulator runs each fabric's
document, and every packet must meet the fate the model predicts, with every
injected packet accounted for.  A second run over the same loaded topology,
as the benchmark's batches make, must write the same records.

The model is imported read-only, as the benchmark imports it.
"""

import importlib.util
import json
import sys
from ipaddress import IPv4Address, IPv6Address, ip_address
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gvn.sim import load_scenario, run

from .oracles import check_arrivals

ROOT = Path(__file__).resolve().parent.parent


def _bench_model():
    name = "gvn_bench_model"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "model.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


model = _bench_model()
CODE_MAX = (1 << 40) - 1
UNKNOWN_CODES = (0x42, 0x1_0000_0000, CODE_MAX)
SPI = 9
VNIDS = (1, 2, 3)
CONTENT = ("video/a", "video/b", "news/c")
PROTOCOLS = (1, 6, 17, 58, 200)
DOMAINS = 2


def _v4(d, rest):
    return f"10.{d}.{rest}"


def _v6(d, rest):
    # As the simulator renders it, since fates are matched on address text.
    return str(ip_address(f"fd00:{d}:{rest}"))


def _host_prefix(address):
    return f"{address}/{32 if '.' in address else 128}"


@st.composite
def fabrics(draw):
    """(fabric, injections as a scenario lists them, predictions by source)."""
    fabric = model.Fabric("random fabric")
    cores = draw(st.integers(1, 5))
    ring = cores >= 3 and draw(st.booleans())
    for k in range(cores):
        kind = draw(st.sampled_from(("legacy_router", "gvn_router")))
        addresses = [_v4(0, f"{k}.254")] + ([_v6(0, f"{k}::fe")] if draw(st.booleans()) else [])
        fabric.add(model.MNode(f"c{k}", kind, addresses))
    for k in range(cores - 1):
        fabric.link(f"c{k}", f"c{k + 1}")
    if ring:
        fabric.link(f"c{cores - 1}", "c0")

    def toward(k, m):
        """The neighbour of core router k on a shortest path to core router m."""
        if not ring:
            return f"c{k + (1 if m > k else -1)}"
        step = 1 if (m - k) % cores <= cores // 2 else -1
        return f"c{(k + step) % cores}"

    functions = []  # (address, node id, core router it hangs off)
    for f in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, cores - 1))
        address = _v4(0, f"{100 + f}.1")
        fabric.add(model.MNode(f"f{f}", "nfv_function", [address], nfv=True,
                               routes=[("0.0.0.0/0", f"c{k}")]))
        fabric.link(f"c{k}", f"f{f}")
        functions.append((address, f"f{f}", k))
    if functions:
        fabric.chains[SPI] = [(address, node_id) for address, node_id, _k in functions]

    attach = [draw(st.integers(0, cores - 1)) for _ in range(DOMAINS)]
    domain = {}  # node id -> its edge domain, for the nodes inside one
    for d in range(1, DOMAINS + 1):
        core, edge = f"c{attach[d - 1]}", f"e{d}"
        fabric.add(model.MNode(edge, "gvn_edge", [_v4(d, "255.254")], has_edge_policy=True,
                               pop_egress=[_v4(d, "0.0/16"), f"fd00:{d}::/32"]))
        fabric.link(core, edge)
        edge_node = fabric.nodes[edge]
        domain[edge] = d
        for j in range(1, draw(st.integers(1, 2)) + 1):
            family = draw(st.sampled_from(("v4", "v6", "both")))
            addresses = ([_v4(d, f"{j}.1")] if family != "v6" else []) + (
                [_v6(d, f"{j}::1")] if family != "v4" else [])
            host = fabric.add(model.MNode(
                f"h{d}_{j}", draw(st.sampled_from(("legacy_host", "gvn_end_host"))), addresses))
            fabric.link(edge, host.id)
            if draw(st.integers(0, 3)):  # else routeless: only neighbours it can see
                host.routes = [("0.0.0.0/0", edge), ("::/0", edge)]
            edge_node.routes += [(_host_prefix(a), host.id) for a in addresses]
            domain[host.id] = d
        edge_node.routes += [("0.0.0.0/0", core), ("::/0", core)]
        if functions and draw(st.booleans()):
            edge_node.ingress.append(model.IngressRule(
                src=_v4(d, "0.0/16"), proto=17, dst=_v4(DOMAINS + 1 - d, "0.0/16"),
                encap_spi=SPI))
        for src in (_v4(d, "0.0/16"), f"fd00:{d}::/32"):
            if draw(st.booleans()):
                vpn = (model.VPN_CODE, 0, model.vpn_data(draw(st.sampled_from(VNIDS))))
                edge_node.ingress.append(model.IngressRule(
                    src=src, proto=draw(st.sampled_from((6, 17))), push=vpn))

    for k in range(cores):
        node = fabric.nodes[f"c{k}"]
        for d in range(1, DOMAINS + 1):
            hop = f"e{d}" if attach[d - 1] == k else toward(k, attach[d - 1])
            node.routes += [(_v4(d, "0.0/16"), hop), (f"fd00:{d}::/32", hop)]
        for m in range(cores):
            if m != k:
                node.routes += [(_host_prefix(a), toward(k, m))
                                for a in fabric.nodes[f"c{m}"].addresses]
        for address, node_id, m in functions:
            node.routes.append((_host_prefix(address), node_id if m == k else toward(k, m)))
        if node.kind == "gvn_router":
            node.nfv = draw(st.booleans())
            if draw(st.booleans()):
                node.vpn_allowed = frozenset(draw(st.sets(st.sampled_from(VNIDS))))
            if draw(st.booleans()):
                near = sorted(node.neighbors)
                node.icn_table = {name: draw(st.sampled_from(near))
                                  for name in draw(st.sets(st.sampled_from(CONTENT)))}

    owned = {4: [], 6: []}
    inside = {d: {4: [_v4(d, "9.9")], 6: [_v6(d, "9::9")]} for d in range(1, DOMAINS + 1)}
    for node in fabric.nodes.values():
        for a in node.addresses:
            owned[6 if ":" in a else 4].append(a)
            if node.id in domain:
                inside[domain[node.id]][6 if ":" in a else 4].append(a)
    # Addresses nobody owns, among them the other family's twin of every
    # IPv4 address (the same integer as an IPv6 address).
    spare = {4: [_v4(1, "9.9"), "10.99.0.1"],
             6: [_v6(2, "9::9"), "fd00:99::1"] + [str(IPv6Address(int(IPv4Address(a))))
                                                for a in owned[4]]}

    hosts = sorted(node_id for node_id in domain if node_id.startswith("h"))
    injections, predictions = [], {}
    for i in range(draw(st.integers(1, 12))):
        version = draw(st.sampled_from((4, 6)))
        if draw(st.booleans()):
            # From a host to the other domain: what the edges tag and steer.
            start = draw(st.sampled_from(hosts))
            d = domain[start]
            dst = draw(st.sampled_from(inside[DOMAINS + 1 - d][version]))
            protocol, tag = draw(st.sampled_from((6, 17))), "none"
        else:
            start = draw(st.sampled_from(sorted(fabric.nodes)))
            d = domain.get(start, 0)
            dst = draw(st.sampled_from(owned[version] + spare[version]))
            protocol = draw(st.sampled_from(PROTOCOLS))
            tag = draw(st.sampled_from(("none", "vpn", "icn", "unknown")))
        src = _v4(d, f"128.{i + 1}") if version == 4 else _v6(d, f"ffff::{i + 1:x}")
        packet = model.Datagram(version, src, dst, protocol, draw(st.integers(1, 64)), b"data")
        spec = {"version": version, "src": src, "dst": dst, "protocol": protocol,
                "ttl": packet.ttl, "payload_hex": packet.payload.hex()}
        injection = {"node": start, "time": i, "packet": spec}
        if tag != "none":
            if tag == "vpn":
                code, flags, pl = model.VPN_CODE, 0, model.vpn_data(draw(st.sampled_from(VNIDS)))
            elif tag == "icn":
                code, flags = model.ICN_CODE, 0
                pl = model.content_tag(draw(st.sampled_from(CONTENT + ("miss",))))
            else:
                code = draw(st.sampled_from(UNKNOWN_CODES))
                flags = draw(st.sampled_from((0, 0x01, 0x80, 0x81)))
                pl = bytes(4 * draw(st.integers(0, 3)))
            injection["gvn"] = {"code": code, "flags": flags, "pl_data_hex": pl.hex()}
            packet = packet.push(model.Tag(protocol, code, flags, pl))
        injections.append(injection)
        predictions[src] = fabric.predict(start, packet)
    return fabric, injections, predictions


def _fields(p):
    return (p.version, str(p.src), str(p.dst), p.protocol, p.ttl, bytes(p.payload),
            p.tos, p.ident, p.flags, p.frag_offset, p.traffic_class, p.flow_label)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fabrics())
def test_every_packet_meets_its_predicted_fate(case):
    fabric, injections, predictions = case
    scenario = load_scenario(json.loads(json.dumps(fabric.document(injections, 10_000))))
    result = run(scenario.topology, scenario.injections, scenario.max_steps)
    assert (result.delivered + sum(result.dropped.values()) + result.in_flight
            == result.injected == len(injections))
    finals = {}
    for record in result.records:
        if record.event == "Deliver" or record.event.startswith("Drop("):
            finals.setdefault(record.src, []).append((record.node, record.event))
    assert check_arrivals(result.records) == []
    delivered = {str(p.src): p for _node, p in result.delivered_packets}
    for src, (kind, node, detail) in predictions.items():
        if kind == "Deliver":
            assert finals.get(src) == [(node, "Deliver")], src
            assert _fields(delivered[src]) == detail.fields(), src
        else:
            assert finals.get(src) == [(node, f"Drop({detail})")], src
    again = run(scenario.topology, scenario.injections, scenario.max_steps)
    assert again.records == result.records

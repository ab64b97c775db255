"""Seeded workload generators.

Each generator is a pure function of its seed.  The simulator workloads
return a scenario document (what ``gvn run`` would read) and, per injected
packet, its traffic class and the fate the reference model in ``model``
predicts.  Every injected packet gets its own source address, so a fate in
the trace (which records addresses, not packet ids) belongs to exactly one
injection.  The wire workload returns serialized datagrams built by hand
together with the bytes the push/pop pipeline must turn them into.

The shape of each workload (node counts, the path each packet class takes,
class shares, packet sizes) is fixed; the seed draws addresses, codes,
VNIDs, content names, payload bytes and order, so no two seeds share inputs
while every seed asks for the same work.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv6Address, IPv4Network, IPv6Network
from typing import Dict, List, Optional, Tuple

from model import (
    GVN_PROTOCOL,
    ICN_CODE,
    NFV_CODE,
    VPN_CODE,
    Datagram,
    Fabric,
    IngressRule,
    MNode,
    Tag,
    content_tag,
    vpn_data,
)

CODE_MAX = (1 << 40) - 1
BUILTIN_CODES = (0, NFV_CODE, ICN_CODE, VPN_CODE, CODE_MAX)
# Transport payload sizes, smallest first (RFC 2544 spirit: per-packet cost
# dominates at the small end).  Simulator packets stay under a 1,500-byte
# MTU, because an oversize push aborts a whole run today.
SIM_PAYLOADS = (0, 18, 64, 128, 256, 512, 1024, 1280, 1400)
WIRE_SIZES = (0, 64, 128, 256, 512, 1024, 1280, 1500)  # 0: header only


@dataclass(frozen=True)
class Prediction:
    klass: str
    fate: tuple  # ("Deliver", node, Datagram) or ("Drop", node, reason)


@dataclass
class SimWorkload:
    name: str
    doc: dict
    predictions: Dict[str, Prediction]  # keyed by the packet's source address


def _payloads(rng: random.Random, count: int) -> List[bytes]:
    sizes = [SIM_PAYLOADS[i % len(SIM_PAYLOADS)] for i in range(count)]
    rng.shuffle(sizes)
    return [rng.randbytes(size) for size in sizes]


def _unknown_code(rng: random.Random) -> int:
    while True:
        code = rng.randrange(1, CODE_MAX)
        if code not in BUILTIN_CODES:
            return code


def _injection(node: str, time: int, p: Datagram) -> dict:
    spec = {"version": p.version, "src": p.src, "dst": p.dst, "protocol": p.protocol,
            "ttl": p.ttl, "payload_hex": p.payload.hex()}
    if p.version == 4:
        spec.update(tos=p.tos, ident=p.ident)
    else:
        spec.update(traffic_class=p.traffic_class, flow_label=p.flow_label)
    return {"node": node, "time": time, "packet": spec}


def _datagram(rng: random.Random, version: int, src: str, dst: str, protocol: int,
              payload: bytes, ttl: int = 64) -> Datagram:
    if version == 4:
        return Datagram(4, src, dst, protocol, ttl, payload,
                        tos=rng.choice((0, 0x10, 0xb8)), ident=rng.randrange(1 << 16))
    return Datagram(6, src, dst, protocol, ttl, payload,
                    traffic_class=rng.randrange(256), flow_label=rng.randrange(1 << 20))


class _Sources:
    """Hands out a distinct source address per packet inside a prefix."""

    def __init__(self) -> None:
        self._next: Dict[str, int] = {}

    def take(self, prefix: str) -> str:
        net = IPv4Network(prefix) if ":" not in prefix else IPv6Network(prefix)
        offset = self._next.get(prefix, 1)
        self._next[prefix] = offset + 1
        return str(net.network_address + offset)


def _finish(name: str, fabric: Fabric, traffic, ticks_per_packet: float) -> SimWorkload:
    """Turn (class, injecting node, datagram, tag or None) tuples into the
    document and the predictions."""
    injections = []
    predictions: Dict[str, Prediction] = {}
    for i, (klass, node, packet, tag) in enumerate(traffic):
        time = int(i * ticks_per_packet)
        inj = _injection(node, time, packet)
        if tag is not None:
            inj["gvn"] = {"code": tag.code, "flags": tag.flags, "pl_data_hex": tag.pl_data.hex()}
            packet = packet.push(tag)
        predictions[packet.src] = Prediction(klass, fabric.predict(node, packet))
        injections.append(inj)
    max_steps = int(len(traffic) * ticks_per_packet) + 1000
    return SimWorkload(name, fabric.document(injections, max_steps), predictions)


# -- mixed_fabric ----------------------------------------------------------------

RING = 8          # core routers; domain k, a stub host and extras hang off router k
HOSTS = 2         # legacy hosts per edge domain
# Fixed placements (ring positions), so every seed sends each packet class
# over the same paths: GVN routers at even positions, the VPN domains that
# are denied, the NFV functions of the 3- and 4-function chains (one per
# core router, 7 of 8), each chain's target domain, and the two ICN caches.
GVN_PHASE = 0
DENIED = (0, 1)
FN_POSITIONS = (3, 7, 5, 1, 0, 4, 2)
TARGETS = (6, 7)
ICN_POSITIONS = (6, 4)
FABRIC_PACKETS = 1024
FABRIC_CLASSES = (  # (class, share in 1/64)
    ("chain", 14), ("vpn_allowed", 10), ("vpn_denied", 5), ("icn", 9),
    ("unknown_flag_set", 5), ("unknown_flag_clear", 6), ("plain", 15),
)


def mixed_fabric(seed: int) -> SimWorkload:
    """Edge domains of legacy hosts behind ``gvn_edge`` nodes on a ring core
    of alternating legacy and GVN routers, with two NFV chains, VPN
    admission at every GVN router and ICN tag tables at two of them."""
    rng = random.Random(f"mixed_fabric:{seed}")
    fabric = Fabric(f"mixed_fabric seed={seed}")
    gvn_positions = [k for k in range(RING) if k % 2 == GVN_PHASE]
    blocks = rng.sample(range(1, 250), RING)  # 10.B.0.0/16 and fd00:B::/32 per position

    def v4(k: int, rest: str) -> str:
        return f"10.{blocks[k]}.{rest}"

    def v6(k: int, rest: str) -> str:
        return f"fd00:{blocks[k]:x}:{rest}"

    vnids = rng.sample(range(1, 1 << 32), RING)
    denied = set(DENIED)
    allowed = frozenset(vnids[k] for k in range(RING) if k not in denied)
    for k in range(RING):
        fabric.add(MNode(f"c{k}", "gvn_router" if k in gvn_positions else "legacy_router",
                         [v4(k, "255.1")]))
    for k in range(RING):
        fabric.link(f"c{k}", f"c{(k + 1) % RING}")

    # NFV chains: 3 and 4 functions, one function per core router (7 of 8).
    chain_sizes = (3, 4)
    spis = rng.sample(range(1, 1 << 24), len(chain_sizes))
    fn_positions, targets = FN_POSITIONS, TARGETS
    extra_routes: Dict[int, List[Tuple[str, str]]] = {k: [] for k in range(RING)}
    for c, (spi, size) in enumerate(zip(spis, chain_sizes)):
        hops = []
        for f in range(size):
            k = fn_positions[sum(chain_sizes[:c]) + f]
            node_id, address = f"f{spi}_{f}", v4(k, f"200.{c * 8 + f + 1}")
            fabric.add(MNode(node_id, "nfv_function", [address], nfv=True,
                             routes=[("0.0.0.0/0", f"c{k}")]))
            fabric.link(f"c{k}", node_id)
            extra_routes[k].append((f"{address}/32", node_id))
            hops.append((address, node_id))
        fabric.chains[spi] = hops

    # ICN caches hang off two GVN routers; each router maps its names there.
    names = [f"content/{rng.randrange(1 << 30):08x}/{i}" for i in range(24)]
    for j, k in enumerate(ICN_POSITIONS):
        cache = f"x{k}"
        fabric.add(MNode(cache, "gvn_end_host", [v4(k, "220.1"), v6(k, "3::1")],
                         routes=[("0.0.0.0/0", f"c{k}"), ("::/0", f"c{k}")],
                         deliver_code=ICN_CODE))
        fabric.link(f"c{k}", cache)
        extra_routes[k] += [(v4(k, "220.1/32"), cache), (v6(k, "3::1/128"), cache)]
        fabric.nodes[f"c{k}"].icn_table = {name: cache for name in names[j * 8:(j + 1) * 8]}
    for k in gvn_positions:
        core = fabric.nodes[f"c{k}"]
        core.vpn_allowed = allowed
        core.nfv = True

    for k in range(RING):
        edge, stub = f"e{k}", f"s{k}"
        hosts = [f"h{k}_{j}" for j in range(HOSTS)]
        fabric.add(MNode(edge, "gvn_edge", [v4(k, "127.254")], has_edge_policy=True,
                         pop_egress=[v4(k, "0.0/17"), v6(k, "1::/48")]))
        for j, host in enumerate(hosts):
            fabric.add(MNode(host, "legacy_host", [v4(k, f"{j + 1}.1"), v6(k, f"1::{j + 1}")],
                             routes=[("0.0.0.0/0", edge), ("::/0", edge)]))
            fabric.link(edge, host)
            fabric.nodes[edge].routes += [(v4(k, f"{j + 1}.1/32"), host),
                                          (v6(k, f"1::{j + 1}/128"), host)]
        fabric.nodes[edge].routes += [("0.0.0.0/0", f"c{k}"), ("::/0", f"c{k}")]
        fabric.add(MNode(stub, "legacy_host", [v4(k, "128.1"), v6(k, "2::1")],
                         routes=[("0.0.0.0/0", f"c{k}"), ("::/0", f"c{k}")]))
        fabric.link(f"c{k}", edge)
        fabric.link(f"c{k}", stub)
        rules = fabric.nodes[edge].ingress
        for c, spi in enumerate(spis):
            if targets[c] != k:
                rules.append(IngressRule(src=v4(k, "0.0/17"), proto=17,
                                         dst=v4(targets[c], "0.0/17"), encap_spi=spi))
        push = (VPN_CODE, 0, vpn_data(vnids[k]))
        rules.append(IngressRule(src=v4(k, "0.0/17"), proto=6, push=push))
        rules.append(IngressRule(src=v6(k, "1::/48"), proto=6, push=push))

        core = fabric.nodes[f"c{k}"]
        for m in range(RING):
            if m == k:
                continue
            step = 1 if (m - k) % RING <= RING // 2 else -1
            toward = f"c{(k + step) % RING}"
            core.routes += [(v4(m, "0.0/16"), toward), (v6(m, ":/32"), toward)]
        core.routes += [(v4(k, "0.0/17"), edge), (v6(k, "1::/48"), edge),
                        (v4(k, "128.1/32"), stub), (v6(k, "2::1/128"), stub)]
        core.routes += extra_routes[k]

    sources = _Sources()
    payloads = _payloads(rng, FABRIC_PACKETS)
    counts = {klass: FABRIC_PACKETS * share // 64 for klass, share in FABRIC_CLASSES}
    counts["plain"] += FABRIC_PACKETS - sum(counts.values())
    traffic = []
    for klass, count in counts.items():
        unknown = klass.startswith("unknown")
        for i in range(count):
            offset = 1 + i % (RING - 1)  # every ring distance equally often
            version = 6 if i % 4 == 3 else 4
            src_k = i % RING
            if klass == "chain":
                src_k, version = (targets[i % len(spis)] + offset) % RING, 4
            elif klass.startswith("vpn"):
                pool = [k for k in range(RING) if (k in denied) == (klass == "vpn_denied")]
                src_k = pool[i % len(pool)]
            dst_k = targets[i % len(spis)] if klass == "chain" else (src_k + offset) % RING

            # Half the unknown-code packets start at stub hosts on the core,
            # so the first GVN router (not the domain edge) meets them.
            if unknown and i % 2 == 0:
                host = f"s{src_k}"
                src_prefix = v4(src_k, "160.0/19") if version == 4 else v6(src_k, "2:ffff::/64")
            else:
                host = f"h{src_k}_{i % HOSTS}"
                src_prefix = v4(src_k, "64.0/18") if version == 4 else v6(src_k, "1:ffff::/64")
            if unknown and i % 3 == 0:
                dst = v4(dst_k, "128.1") if version == 4 else v6(dst_k, "2::1")
            else:
                j = (i // RING) % HOSTS + 1
                dst = v4(dst_k, f"{j}.1") if version == 4 else v6(dst_k, f"1::{j}")

            if klass == "chain":
                protocol = 17
            elif klass.startswith("vpn"):
                protocol = 6
            elif klass == "plain":
                # Edges push VPN tags on TCP and chain UDP bound for a chain
                # target, so untagged traffic is ICMP or UDP elsewhere.
                udp_ok = version == 6 or dst_k not in targets
                protocol = 17 if udp_ok and i % 2 else (1 if version == 4 else 58)
            else:
                protocol = rng.choice((6, 17))
            payload = payloads[len(traffic)]
            packet = _datagram(rng, version, sources.take(src_prefix), dst, protocol, payload)
            tag = None
            if klass == "icn":
                name = names[i % len(names)] if i % 3 else f"content/miss/{rng.randrange(1 << 30)}"
                tag = Tag(protocol, ICN_CODE, 0, content_tag(name))
            elif unknown:
                flags = 0x80 if klass == "unknown_flag_set" else rng.choice((0, 0x01, 0x40))
                tag = Tag(protocol, _unknown_code(rng), flags, rng.randbytes(4 * rng.randrange(5)))
            traffic.append((klass, host, packet, tag))
    rng.shuffle(traffic)
    return _finish("mixed_fabric", fabric, traffic, ticks_per_packet=1 / 16)


# -- route tables ------------------------------------------------------------------

def filler_routes(rng: random.Random, count: int) -> List[str]:
    """Mixed-length prefixes that never cover 10.0.0.0/8 or fd00::/8, where
    the destinations looked up among them lie.  Lengths follow a
    routing-table-like mix: mostly /24, some /16-/23, a few short ones."""
    prefixes = []
    lengths = [24] * 10 + list(range(16, 24)) * 2 + list(range(8, 16))
    for i in range(count):
        if i % 7 == 6:
            plen = rng.choice((32, 40, 44, 48, 48, 56, 64))
            base = (0x2000 + rng.randrange(0x2000)) << 112 | rng.getrandbits(112)
            net = IPv6Network((base >> (128 - plen) << (128 - plen), plen))
        else:
            plen = rng.choice(lengths)
            base = rng.randrange(11, 224) << 24 | rng.getrandbits(24)
            net = IPv4Network((base >> (32 - plen) << (32 - plen), plen))
        prefixes.append(str(net))
    return prefixes


def lpm_probe(seed: int, sizes, lookups: int = 64):
    """Route sets of each size and one destination stream for them all.

    Every set holds the same two routes for the stream's destinations plus
    filler; the destinations sit in 10.0.0.0/8 and fd00::/8, which filler
    never covers, so each lookup scans the whole table and resolves the same
    way at every size.
    """
    rng = random.Random(f"lpm_probe:{seed}")
    filler = filler_routes(rng, max(sizes))
    base = [("10.0.0.0/8", "left"), ("fd00::/8", "right")]
    tables = {n: base + [(p, "left" if k % 2 else "right") for k, p in enumerate(filler[:n - 2])]
              for n in sizes}
    stream = [str(IPv4Address((10 << 24) | rng.getrandbits(24))) if k % 4
              else str(IPv6Address((0xfd << 120) | rng.getrandbits(120)))
              for k in range(lookups)]
    return tables, stream


# -- wire_tagging -----------------------------------------------------------------

WIRE_PACKETS = 2048
WIRE_OVERSIZE_EVERY = 256   # one packet in 256 sits near 65,535 bytes


def checksum16(header: bytes) -> int:
    total = sum(int.from_bytes(header[i:i + 2], "big") for i in range(0, len(header), 2))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ip_bytes(version: int, src: bytes, dst: bytes, protocol: int, ttl: int, body: bytes,
             tos: int, ident: int, flow_label: int) -> bytes:
    if version == 4:
        head = struct.pack("!BBHHHBBH4s4s", 0x45, tos, 20 + len(body), ident, 0x4000,
                           ttl, protocol, 0, src, dst)
        return head[:10] + checksum16(head).to_bytes(2, "big") + head[12:] + body
    first = (6 << 28) | (tos << 20) | flow_label
    return struct.pack("!IHBB16s16s", first, len(body), protocol, ttl, src, dst) + body


@dataclass(frozen=True)
class WirePacket:
    data: bytes                           # datagram as received
    push: Optional[Tuple[int, int, bytes]]  # header to push when untagged
    expected: Optional[bytes]             # datagram after push/pop; None = refused


def wire_tagging(seed: int) -> List[WirePacket]:
    """Serialized IPv4 and IPv6 datagrams, half tagged (pop) and half
    untagged (push), from header-only up to 1,500 bytes, plus a small share
    near 65,535 bytes whose push must be refused."""
    rng = random.Random(f"wire_tagging:{seed}")
    sizes = [WIRE_SIZES[i % len(WIRE_SIZES)] for i in range(WIRE_PACKETS)]
    rng.shuffle(sizes)
    stream = []
    for i, size in enumerate(sizes):
        version = 6 if i % 4 == 3 else 4
        hlen = 20 if version == 4 else 40
        addr = 4 if version == 4 else 16
        src, dst = rng.randbytes(addr), rng.randbytes(addr)
        protocol = rng.choice((6, 17, 1 if version == 4 else 58))
        tos = rng.randrange(256)
        ident = rng.randrange(1 << 16) if version == 4 else 0
        flow = rng.randrange(1 << 20) if version == 6 else 0
        ttl = rng.randrange(1, 256)
        tag = Tag(protocol, _unknown_code(rng) if i % 3 else rng.choice(BUILTIN_CODES[1:4]),
                  rng.choice((0, 0x80)), rng.randbytes(4 * rng.randrange(253)))
        tagged = i % 2 == 1
        if i % WIRE_OVERSIZE_EVERY == WIRE_OVERSIZE_EVERY - 1:
            limit = 65535 - 20 if version == 4 else 65535
            body = rng.randbytes(limit - rng.randrange(len(tag.to_bytes())))
            untagged = ip_bytes(version, src, dst, protocol, ttl, body, tos, ident, flow)
            stream.append(WirePacket(untagged, (tag.code, tag.flags, tag.pl_data), None))
            continue
        header = tag.to_bytes()
        payload = rng.randbytes(max(0, size - hlen - (len(header) if tagged else 0)))
        untagged = ip_bytes(version, src, dst, protocol, ttl, payload, tos, ident, flow)
        with_tag = ip_bytes(version, src, dst, GVN_PROTOCOL, ttl, header + payload,
                            tos, ident, flow)
        if tagged:
            stream.append(WirePacket(with_tag, None, untagged))
        else:
            stream.append(WirePacket(untagged, (tag.code, tag.flags, tag.pl_data), with_tag))
    return stream


SIM_WORKLOADS = {"mixed_fabric": mixed_fabric}

"""Independent reference implementations used to check the package.

Everything here is written as plain byte-index walks and explicit loops,
deliberately sharing no code with the package under test.
"""

from __future__ import annotations

import random
from ipaddress import ip_address


def byte_walk_header(data: bytes) -> dict:
    """Parse a GVN header by hand, returning a field dict.

    Raises ValueError with a reason keyword on malformed input.
    """
    if len(data) < 8:
        raise ValueError("truncated")
    length_units = data[0]
    if length_units == 255:
        raise ValueError("reserved")
    if length_units < 2:
        raise ValueError("invalid-length")
    total = length_units * 4
    if len(data) < total:
        raise ValueError("truncated")
    code = 0
    for b in data[3:8]:
        code = code * 256 + b
    return {
        "length_units": length_units,
        "total": total,
        "next_header": data[1],
        "flags": data[2],
        "code": code,
        "pl_data": bytes(data[8:total]),
    }


def checksum_loop(header: bytes) -> int:
    """Straight-loop one's-complement checksum over 16-bit words.

    The caller is responsible for zeroing the checksum field; this function
    sums every word it is given.
    """
    data = header
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total = total + data[i] * 256 + data[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total ^ 0xFFFF


def ip_datagram(version: int, src, dst, protocol: int, ttl: int, payload: bytes = b"",
                tos: int = 0, ident: int = 0, flags: int = 0, frag_offset: int = 0,
                traffic_class: int = 0, flow_label: int = 0) -> bytes:
    """A whole datagram written byte by byte: an IPv4 header without options,
    its checksum filled by ``checksum_loop``, or an IPv6 base header, then
    ``payload``.  ``src`` and ``dst`` are ``ipaddress`` objects."""
    if version == 4:
        head = bytearray(20)
        total = 20 + len(payload)
        head[0] = 0x45
        head[1] = tos
        head[2] = total >> 8
        head[3] = total & 0xFF
        head[4] = ident >> 8
        head[5] = ident & 0xFF
        head[6] = (flags << 5) | (frag_offset >> 8)
        head[7] = frag_offset & 0xFF
        head[8] = ttl
        head[9] = protocol
        width, offsets = 4, (12, 16)
    else:
        head = bytearray(40)
        head[0] = 0x60 | (traffic_class >> 4)
        head[1] = ((traffic_class & 0x0F) << 4) | (flow_label >> 16)
        head[2] = (flow_label >> 8) & 0xFF
        head[3] = flow_label & 0xFF
        head[4] = len(payload) >> 8
        head[5] = len(payload) & 0xFF
        head[6] = protocol
        head[7] = ttl
        width, offsets = 16, (8, 24)
    for offset, address in zip(offsets, (src, dst)):
        value = int(address)
        for i in range(width):
            head[offset + i] = (value >> (8 * (width - 1 - i))) & 0xFF
    if version == 4:
        checksum = checksum_loop(bytes(head))
        head[10] = checksum >> 8
        head[11] = checksum & 0xFF
    return bytes(head) + payload


def gvn_header_bytes(header) -> bytes:
    """A GVN header written byte by byte from ``header``'s ``next_header``,
    ``code``, ``flags`` and ``pl_data``: the length in 4-octet units, the next
    header, the flags, the 40-bit code most significant octet first, then the
    PL data."""
    total = 8 + len(header.pl_data)
    head = bytearray(8)
    head[0] = total // 4
    head[1] = header.next_header
    head[2] = header.flags
    for i in range(5):
        head[3 + i] = (header.code >> (8 * (4 - i))) & 0xFF
    return bytes(head) + header.pl_data


def sum16(data: bytes) -> int:
    """Folded one's-complement sum without the final complement."""
    total = 0
    for i in range(0, len(data), 2):
        total = total + data[i] * 256 + data[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def random_ipv4_header(rng: random.Random) -> bytes:
    """A syntactically plausible 20-byte IPv4 header with a zero checksum."""
    fields = bytearray(20)
    fields[0] = 0x45
    fields[1] = rng.randrange(256)
    total_len = rng.randrange(20, 1501)
    fields[2:4] = total_len.to_bytes(2, "big")
    fields[4:6] = rng.randrange(65536).to_bytes(2, "big")
    fields[6:8] = rng.randrange(65536).to_bytes(2, "big")
    fields[8] = rng.randrange(1, 256)
    fields[9] = rng.randrange(256)
    fields[10:12] = b"\x00\x00"
    fields[12:16] = rng.randrange(1 << 32).to_bytes(4, "big")
    fields[16:20] = rng.randrange(1 << 32).to_bytes(4, "big")
    return bytes(fields)


def random_packet(rng: random.Random, version: int, max_payload: int = 1400):
    """Random packet fields as a plain dict (construction left to the test)."""
    if version == 4:
        src = ip_address(rng.randrange(1, 1 << 32))
        dst = ip_address(rng.randrange(1, 1 << 32))
    else:
        src = ip_address(rng.randrange(1, 1 << 128))
        dst = ip_address(rng.randrange(1, 1 << 128))
    return {
        "version": version,
        "src": src,
        "dst": dst,
        "protocol": rng.choice([1, 6, 17, 58, 132]),
        "ttl": rng.randrange(1, 256),
        "payload": rng.randbytes(rng.randrange(0, max_payload + 1)),
    }


def lpm_scan(routes, address):
    """Longest-prefix match by a linear scan.

    ``routes`` holds (address, prefix length, next hop) triples; bits of the
    address past the prefix length are ignored, as loading a prefix with
    ``strict=False`` does.  The longest covering prefix wins; among routes
    for the same prefix, the lowest-sorting next hop.  Returns None when no
    route covers ``address`` (addresses of the other family never do).
    """
    target = address.packed
    best = None
    for network, length, next_hop in routes:
        prefix = network.packed
        if len(prefix) != len(target):
            continue
        width = 8 * len(prefix)
        differing = int.from_bytes(prefix, "big") ^ int.from_bytes(target, "big")
        if differing >> (width - length):
            continue
        key = (-length, next_hop)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def trace_line(record) -> str:
    """One trace record's text line, without its newline: the ten fields
    tab-separated in declared order, the code as ten hex digits after
    ``0x`` and an absent code or empty diagnostic as ``-``."""
    seq, time, node, event, src, dst, protocol, code, ttl, diagnostic = record
    code = f"{code:#012x}" if code is not None else "-"
    diag = diagnostic if diagnostic else "-"
    return (f"{seq}\t{time}\t{node}\t{event}\t"
            f"{src}\t{dst}\t{protocol}\t{code}\t{ttl}\t{diag}")


# What an arrival may record between its Ingress and its one final record.
_ARRIVAL_STEPS = frozenset({"Push", "Pop", "Rewrite"})


def check_arrivals(records) -> list:
    """Problems with the arrival grammar of a trace, in record order; an
    empty list when it holds.

    Every arrival is one Ingress, then any number of Push, Pop or Rewrite
    records, then exactly one of Forward, Deliver or Drop(...), all at one
    time and node.  ``records`` are (seq, time, node, event, ...) tuples;
    an arrival's records are consecutive, as one arrival runs to its end
    before the next begins.
    """
    problems = []
    open_at = None  # the (time, node) of the arrival still without its end
    for record in records:
        seq, time, node, event = record[:4]
        final = event in ("Forward", "Deliver") or (
            event.startswith("Drop(") and event.endswith(")"))
        if event == "Ingress":
            if open_at is not None:
                problems.append(f"record {seq}: Ingress before the last arrival ended")
            open_at = (time, node)
        elif open_at is None:
            problems.append(f"record {seq}: {event} outside an arrival")
        elif (time, node) != open_at:
            problems.append(f"record {seq}: {event} at {(time, node)}, "
                            f"in an arrival at {open_at}")
        elif final:
            open_at = None
        elif event not in _ARRIVAL_STEPS:
            problems.append(f"record {seq}: unknown event {event!r}")
    if open_at is not None:
        problems.append(f"the arrival at {open_at} has no final record")
    return problems

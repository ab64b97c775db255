"""Trace records and their canonical renderings.

The text form is one record per line, fields tab-separated in declared
order, so two runs of the same scenario can be compared byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from ..codec import GVN_PROTOCOL, parse_gvn
from ..errors import MalformedHeader
from ..packet import IpPacket

FIELDS = ("seq", "time", "node", "event", "src", "dst", "protocol", "code", "ttl", "diagnostic")


@dataclass(frozen=True)
class TraceRecord:
    seq: int
    time: int
    node: str
    event: str  # Ingress | Forward | Deliver | Push | Pop | Rewrite | Drop(Reason)
    src: str
    dst: str
    protocol: int
    code: Optional[int]
    ttl: int
    diagnostic: Optional[str] = None

    def to_line(self) -> str:
        code = f"{self.code:#012x}" if self.code is not None else "-"
        diag = self.diagnostic if self.diagnostic else "-"
        return (f"{self.seq}\t{self.time}\t{self.node}\t{self.event}\t"
                f"{self.src}\t{self.dst}\t{self.protocol}\t{code}\t{self.ttl}\t{diag}")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in FIELDS}


def summarize(packet: IpPacket) -> tuple:
    """(src, dst, protocol, code-or-None, ttl) for a trace record of a
    packet seen on its own; parses the header to find the code.  The
    simulator does not call this: it already holds each packet's header."""
    code = None
    if packet.protocol == GVN_PROTOCOL:
        try:
            code = parse_gvn(packet.payload).code
        except MalformedHeader:
            code = None
    return str(packet.src), str(packet.dst), packet.protocol, code, packet.ttl


def format_text(records: List[TraceRecord]) -> str:
    return "".join(record.to_line() + "\n" for record in records)


def format_json(records: List[TraceRecord]) -> str:
    return json.dumps([record.to_dict() for record in records], indent=2) + "\n"

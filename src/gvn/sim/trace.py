"""Trace records and their canonical renderings.

The text form is one record per line, fields tab-separated in declared
order, so two runs of the same scenario can be compared byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Iterable, List, NamedTuple, Optional

from ..codec import GVN_PROTOCOL, parse_gvn
from ..errors import MalformedHeader
from ..packet import IpPacket


class TraceRecord(NamedTuple):
    """One event of a run.  A named tuple, so it is immutable, cheap to
    build (a run makes one per event) and equal to the plain tuple of its
    fields."""

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
        """This record's line of ``format_text``, without its newline."""
        return format_text((self,))[:-1]

    def to_dict(self) -> dict:
        return self._asdict()


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


# The text of each octet: format_text looks up protocol and TTL here.
_OCTETS = tuple(str(i) for i in range(256))


def format_text(records: Iterable[TraceRecord]) -> str:
    """One line per record; each record is unpacked once, each code rendered once."""
    codes = {None: "-"}
    octets = _OCTETS
    lines = []
    for seq, time, node, event, src, dst, protocol, code, ttl, diagnostic in records:
        if code not in codes:
            codes[code] = f"{code:#012x}"
        lines.append(f"{seq}\t{time}\t{node}\t{event}\t{src}\t{dst}\t"
                     f"{octets[protocol] if 0 <= protocol <= 255 else protocol}\t"
                     f"{codes[code]}\t{octets[ttl] if 0 <= ttl <= 255 else ttl}\t"
                     f"{diagnostic or '-'}\n")
    return "".join(lines)


def format_json(records: List[TraceRecord]) -> str:
    return json.dumps([record.to_dict() for record in records], indent=2) + "\n"

"""Trace records and their canonical renderings.

A run stores each record as the plain tuple of its fields, in declared
order, in a ``TraceRecords`` list, which hands each one out as a
``TraceRecord`` when it is read.  The renderers read the stored tuples.

The text form is one record per line, fields tab-separated in declared
order, so two runs of the same scenario can be compared byte-for-byte.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Iterable, Iterator, List, NamedTuple, Optional

from ..codec import GVN_PROTOCOL, parse_gvn
from ..errors import MalformedHeader
from ..packet import IpPacket


class TraceRecord(NamedTuple):
    """One event of a run.  A named tuple, so it is immutable and equal to
    the plain tuple of its fields, which is what a run stores."""

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


# A stored tuple's TraceRecord, built in C: tuple.__new__ checks no arity,
# and a run stores whole records only.
_view = partial(tuple.__new__, TraceRecord)


class TraceRecords(list):
    """A run's records: it stores the plain tuple of each record's fields,
    and every read of an item (index, slice, iteration, ``reversed``,
    ``pop``, ``copy``) yields a ``TraceRecord`` equal to it, built as it is
    read.  Equality, ``len``, ``in``, ``index`` and ``count`` are
    ``list``'s own; ``copy.copy``, ``copy.deepcopy`` and ``pickle`` read
    through iteration, so a copy holds ``TraceRecord``s."""

    __slots__ = ()

    def __getitem__(self, index):
        if type(index) is slice:
            return TraceRecords(list.__getitem__(self, index))
        return _view(list.__getitem__(self, index))

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_view, list.__iter__(self))

    def __reversed__(self) -> Iterator[TraceRecord]:
        return map(_view, list.__reversed__(self))

    def pop(self, index: int = -1) -> TraceRecord:
        return _view(list.pop(self, index))

    def copy(self) -> TraceRecords:
        return TraceRecords(list.__iter__(self))

    def __repr__(self) -> str:
        return repr(list(self))


def _rows(records: Iterable[TraceRecord]) -> Iterable[tuple]:
    """The records as stored: a list's own items, not the views it may hand out."""
    return list.__iter__(records) if isinstance(records, list) else records


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
    for seq, time, node, event, src, dst, protocol, code, ttl, diagnostic in _rows(records):
        if code not in codes:
            codes[code] = f"{code:#012x}"
        lines.append(f"{seq}\t{time}\t{node}\t{event}\t{src}\t{dst}\t"
                     f"{octets[protocol] if 0 <= protocol <= 255 else protocol}\t"
                     f"{codes[code]}\t{octets[ttl] if 0 <= ttl <= 255 else ttl}\t"
                     f"{diagnostic or '-'}\n")
    return "".join(lines)


def format_json(records: List[TraceRecord]) -> str:
    fields = TraceRecord._fields
    return json.dumps([dict(zip(fields, row)) for row in _rows(records)], indent=2) + "\n"

"""Content tagging: route on what a packet carries, not where it goes.

A content name is mapped to a fixed 8-octet tag (SHA-256 prefix of the
UTF-8 name), carried as the whole PL data field.  Nodes holding a tag table
forward matching packets toward the mapped neighbor; unmapped tags fall back
to plain IP forwarding.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Mapping

from ..codec import GvnHeader, push_gvn
from ..framework import _FORWARD_BY_IP, LocalAddresses, PlAction, ProcessingLogicBinding
from ..packet import IpPacket
from .codes import ICN_CODE

TAG_LEN = 8


def content_tag(content_name: str) -> bytes:
    """Deterministic fixed-length tag for a content name."""
    return hashlib.sha256(content_name.encode("utf-8")).digest()[:TAG_LEN]


def icn_tag(packet: IpPacket, content_name: str, *, flags: int = 0) -> IpPacket:
    """Tag an untagged packet with the content name's tag."""
    header = GvnHeader(next_header=packet.protocol, code=ICN_CODE,
                       flags=flags, pl_data=content_tag(content_name))
    return push_gvn(packet, header)


def icn_route(header: GvnHeader, tag_table: Mapping[bytes, str]) -> PlAction:
    """Forward toward the neighbor mapped to the packet's tag, if any.  A
    forward's note is never traced, so a hit carries none."""
    next_hop = tag_table.get(header.pl_data[:TAG_LEN])
    if next_hop is not None:
        return PlAction.forward_to(next_hop)
    return _FORWARD_BY_IP


def _handler(tag_table: Mapping[bytes, str], header: GvnHeader, packet: IpPacket,
             local: LocalAddresses) -> PlAction:
    return icn_route(header, tag_table)


def make_icn_handler(tag_table: Mapping[bytes, str]) -> ProcessingLogicBinding:
    return ProcessingLogicBinding(code=ICN_CODE, name="icn-tag",
                                  handler=partial(_handler, tag_table))

"""Layer-3.5 virtual networking toolkit.

A variable-length header carried as IP protocol 254 sits between the IP and
transport headers; a 40-bit code in the header selects a processing logic
at GVN-capable nodes, while everything else forwards the packet as plain
IP.  The package provides the wire codec, the logic registry and dispatch
rules, three built-in logics (service chaining, content tagging, virtual
network separation), and a deterministic simulator for mixed topologies.
"""

from . import errors
from .codec import (
    CODE_MAX,
    FLAG_DROP_ON_UNKNOWN,
    GVN_PROTOCOL,
    Classification,
    GvnHeader,
    classify,
    parse_gvn,
    pop_gvn,
    push_gvn,
    serialize_gvn,
    strip_gvn,
)
from .framework import (
    ActionKind,
    DropReason,
    LocalAddresses,
    PlAction,
    PlRegistry,
    ProcessingLogicBinding,
)
from .packet import (
    KNOWN_TRANSPORTS,
    IpPacket,
    ipv4_checksum_valid,
    ipv4_header_checksum,
    make_packet,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "CODE_MAX",
    "FLAG_DROP_ON_UNKNOWN",
    "GVN_PROTOCOL",
    "Classification",
    "GvnHeader",
    "classify",
    "parse_gvn",
    "pop_gvn",
    "push_gvn",
    "serialize_gvn",
    "strip_gvn",
    "ActionKind",
    "DropReason",
    "LocalAddresses",
    "PlAction",
    "PlRegistry",
    "ProcessingLogicBinding",
    "KNOWN_TRANSPORTS",
    "IpPacket",
    "ipv4_checksum_valid",
    "ipv4_header_checksum",
    "make_packet",
    "__version__",
]

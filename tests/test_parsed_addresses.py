"""Addresses parsed from the wire behave as ``ip_address`` of the same value.

The parser builds its address objects without their constructor, from the
integers it unpacks, so this pins the ``ipaddress`` slots that relies on.
The module needs neither pytest nor hypothesis; run it standalone on any
interpreter with ``PYTHONPATH=src python tests/test_parsed_addresses.py``.
"""

import copy
import pickle
import random
from ipaddress import ip_address

from gvn.framework import LocalAddresses
from gvn.packet import IpPacket

PREDICATES = ("is_private", "is_global", "is_loopback", "is_multicast", "is_link_local",
              "is_unspecified", "is_reserved")
V6_PROPERTIES = ("ipv4_mapped", "sixtofour", "teredo", "is_site_local", "scope_id")


def _values(version):
    rng = random.Random(version)
    if version == 4:
        fixed = ["0.0.0.0", "0.0.0.1", "10.0.0.1", "100.64.0.1", "127.0.0.1", "169.254.1.1",
                 "172.16.5.4", "192.168.0.199", "224.0.0.1", "8.8.8.8", "255.255.255.255"]
        width = 32
    else:
        fixed = ["::", "::1", "::ffff:10.0.0.1", "::ffff:8.8.8.8", "fe80::1", "fd00::7",
                 "2001:db8::1", "2001::1", "2002:c000:204::1", "ff02::1",
                 "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"]
        width = 128
    return [int(ip_address(text)) for text in fixed] + [rng.getrandbits(width)
                                                         for _ in range(32)]


def _expected(version, value):
    # From the packed bytes: ip_address of an integer below 2**32 is IPv4.
    return ip_address(value.to_bytes(4 if version == 4 else 16, "big"))


def _parsed(version, src, dst):
    """``from_bytes`` of a header-only datagram from ``src`` to ``dst``,
    written by hand (``from_bytes`` reads no checksum)."""
    if version == 4:
        head = bytes([0x45, 0, 0, 20, 0, 0, 0, 0, 64, 17, 0, 0])
        return IpPacket.from_bytes(head + src.to_bytes(4, "big") + dst.to_bytes(4, "big"))
    head = bytes([0x60, 0, 0, 0, 0, 0, 17, 64])
    return IpPacket.from_bytes(head + src.to_bytes(16, "big") + dst.to_bytes(16, "big"))


def _check_same(parsed, expected):
    assert type(parsed) is type(expected)
    assert parsed == expected and expected == parsed and not parsed != expected
    assert hash(parsed) == hash(expected)
    assert str(parsed) == str(expected)
    assert repr(parsed) == repr(expected)
    assert parsed.packed == expected.packed
    assert int(parsed) == int(expected)
    assert parsed.version == expected.version
    for name in PREDICATES:
        assert getattr(parsed, name) == getattr(expected, name), name
    if expected.version == 6:
        for name in V6_PROPERTIES:
            assert getattr(parsed, name) == getattr(expected, name), name
        assert parsed.scope_id is None
    for clone in (pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed), copy.copy(parsed)):
        assert clone == expected and str(clone) == str(expected)
    assert {expected: "x"}[parsed] == "x" and {parsed: "x"}[expected] == "x"
    assert parsed in {expected} and expected in {parsed}
    assert parsed in frozenset([expected]) and expected in frozenset([parsed])


def test_parsed_addresses_equal_constructed_ones():
    for version in (4, 6):
        values = _values(version)
        for src, dst in zip(values, reversed(values)):
            packet = _parsed(version, src, dst)
            _check_same(packet.src, _expected(version, src))
            _check_same(packet.dst, _expected(version, dst))
            assert (packet.src < packet.dst) == (src < dst)


def test_parsed_destination_is_local_where_its_constructed_twin_is():
    for version in (4, 6):
        values = _values(version)
        for src, dst in zip(values, reversed(values)):
            packet = _parsed(version, src, dst)
            expected = _expected(version, dst)
            assert LocalAddresses([expected]).has_dst(packet)
            assert LocalAddresses([packet.dst]).has_dst(packet.with_dst(expected))
            assert not LocalAddresses([_expected(version, dst ^ 1)]).has_dst(packet)


if __name__ == "__main__":
    test_parsed_addresses_equal_constructed_ones()
    test_parsed_destination_is_local_where_its_constructed_twin_is()
    print("parsed addresses: ok")

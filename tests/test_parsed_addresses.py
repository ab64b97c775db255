"""Addresses parsed from the wire or read from a scenario behave as
``ip_address`` of the same text or value.

The packet parser builds its address objects without their constructor,
from the integers it unpacks, and so does the scenario loader from the
integers the platform's ``inet_pton`` reads, so this pins the ``ipaddress``
slots that relies on.  The loader must also accept and refuse address and
prefix text exactly as ``ipaddress`` does, with the same messages, whatever
the platform's C library takes.  The module needs neither pytest nor
hypothesis (without hypothesis its differential test is left out); run it
standalone on any interpreter and platform with
``PYTHONPATH=src python tests/test_parsed_addresses.py``.
"""

import copy
import pickle
import random
from ipaddress import IPv4Address, IPv4Network, IPv6Address, IPv6Network, ip_address, ip_network

from gvn.errors import SchemaError
from gvn.framework import LocalAddresses
from gvn.packet import IpPacket
from gvn.sim import build_topology
from gvn.sim.topology import address_key

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    given = None

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


# Address text, canonical or not, that ipaddress accepts or refuses, and
# text a C library may read otherwise: leading zeros, short forms, spaces,
# non-ASCII digits, a NUL, a lone surrogate and a scope id.
ADDRESS_TEXTS = [
    "1.2.3.4", "10.0.0.1", "0.0.0.0", "255.255.255.255", "256.1.1.1", "01.2.3.4", "1.2.3.04",
    "1.2.3", "1.2", "1", "0x1.2.3.4", "1.2.3.4.", " 1.2.3.4", "1.2.3.4 ", "١.2.3.4",
    "１.2.3.4", "1.2.3.٤", "1.2.3.4\0", "\ud800", "1.2.3.4%eth0", "",
    "::", "::1", "fd00::1", "FD00:0:0::1", "fd00:0:0::1", "Fd00::1", "fd00:0:0:0:0:0:0:1",
    "::ffff:1.2.3.4", "::ffff:102:304", "::1.2.3.4", "::01.2.3.4", "::0.1.0.0", "::1:2",
    "1:2:3:4:5:6:7::", "1:2:3:4:5:6:7:0", "1:2:3:4:5:6:1.2.3.4", "1::2::3", ":::", "1:",
    "::fffff", "2001:db8::1", "2001:DB8::1", "2001:0db8::1", "2001:db8:0:0:1::1",
    "2001:db8::1:0:0:1", "fe80::1%eth0", "fe80::1%", "::1 ", " ::1", "::١", "::\0",
    "ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255", "64:ff9b::1.2.3.4",
    # "::" for a single zero group: RFC 5952 forbids it, a platform's libc may write it.
    "1::2:3:4:5:6:7",
]
# Prefix text: canonical lengths and others, netmasks and hostmasks.
PREFIX_TEXTS = [
    "10.0.0.0/8", "10.0.0.1/8", "10.0.0.0/016", "10.0.0.0/16", "10.0.0.0/0", "10.0.0.0/32",
    "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/+8", "10.0.0.0/ 8", "10.0.0.0/8 ", "10.0.0.0/",
    "10.0.0.0", "10.0.0.0/١٦", "10.0.0.0/255.255.0.0", "10.0.0.0/0.0.255.255",
    "10.0.0.0/255.0.255.0", "010.0.0.0/8", "10.0.0.0/8/8", "10.0.0.0%x/8", "10.0.0.0/8%x",
    "fd00::/8", "fd00::1/64", "FD00::/8", "fd00:0::/8", "fd00::/0", "fd00::/128",
    "fd00::/129", "fd00::/0128", "::/0", "::ffff:1.2.3.4/120", "::ffff:1.2.3.4/96",
    "fd00::/ffff::", "fe80::%eth0/64", "fd00::/64%x", "/8", "/", "1.2.3.4\0/8", "\ud800/8",
]


def _topology(address="10.9.9.9", prefix="10.0.0.0/8"):
    """``build_topology`` of two linked routers: ``a`` owns ``address`` and
    routes ``prefix`` to ``b``."""
    return build_topology({
        "nodes": [{"id": "a", "kind": "legacy_router", "addresses": [address]},
                  {"id": "b", "kind": "legacy_router"}],
        "links": [["a", "b"]],
        "routes": {"a": [{"prefix": prefix, "next_hop": "b"}]},
    })


def _refusal(what, where, text, parse):
    """The message the loader gave before it read text with the C library,
    None if it accepted: its own for a scope id, else that of ipaddress's
    constructor of the family the text names (IPv6 if it has a colon).  The
    texts here are short enough for the loader to quote them whole."""
    if "%" in text:
        reason = "scope ids are not supported"
    else:
        try:
            parse(text)
            return None
        except ValueError as exc:
            reason = str(exc)[:100]
    return f"{where}: bad {what} {text!r}: {reason}"


def _accepts(parse, text):
    try:
        parse(text)
        return True
    except ValueError:
        return False


def _check_address_text(text):
    expected = _refusal("address", "nodes[0].addresses[0]", text,
                        IPv6Address if ":" in text else IPv4Address)
    assert (expected is None) == ("%" not in text and _accepts(ip_address, text)), text
    try:
        topology = _topology(address=text)
    except SchemaError as exc:
        assert str(exc) == expected, (text, str(exc), expected)
        return
    assert expected is None, text
    address = topology.address_text.parsed[text]
    _check_same(address, ip_address(text))
    # Keyed by value: an equal address built by the constructor finds it.
    assert topology.address_text[address_key(ip_address(text))] == str(ip_address(text))


def _check_prefix_text(text):
    network_of = IPv6Network if ":" in text else IPv4Network
    expected = _refusal("prefix", "routes['a'][0].prefix", text,
                        lambda text: network_of(text, strict=False))
    assert (expected is None) == ("%" not in text and _accepts(
        lambda text: ip_network(text, strict=False), text)), text
    try:
        topology = _topology(prefix=text)
    except SchemaError as exc:
        assert str(exc) == expected, (text, str(exc), expected)
        return
    assert expected is None, text
    network = topology.nodes["a"].routing.entries[0].network
    reference = ip_network(text, strict=False)
    assert type(network) is type(reference) and network == reference, text
    assert network.prefixlen == reference.prefixlen and str(network) == str(reference)
    _check_same(network.network_address, reference.network_address)
    _check_same(network.netmask, reference.netmask)


def test_loader_reads_address_text_as_ipaddress_does():
    for text in ADDRESS_TEXTS:
        _check_address_text(text)


def test_loader_reads_prefix_text_as_ipaddress_does():
    for text in PREFIX_TEXTS:
        _check_prefix_text(text)


if given is not None:
    @st.composite
    def _rendered(draw):
        """An address as ipaddress renders it, compressed or exploded, in
        either case, with or without a prefix length or mask."""
        value = draw(st.integers(0, 2 ** 128 - 1))
        address = IPv6Address(value) if draw(st.booleans()) else IPv4Address(value % 2 ** 32)
        text = address.exploded if draw(st.booleans()) else str(address)
        return (text.upper() if draw(st.booleans()) else text) + draw(st.sampled_from(
            ["", "/0", "/8", "/016", "/32", "/33", "/64", "/128", "/129", "/255.255.0.0"]))

    # Text of the characters of address and prefix text, a space and
    # non-ASCII digits, and rendered addresses, which ipaddress accepts.
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(alphabet="0123456789abcdefABCDEF.:/% ١٤٠１９", max_size=48),
                     _rendered()))
    def test_loader_reads_any_text_as_ipaddress_does(text):
        _check_address_text(text)
        _check_prefix_text(text)


if __name__ == "__main__":
    test_parsed_addresses_equal_constructed_ones()
    test_parsed_destination_is_local_where_its_constructed_twin_is()
    test_loader_reads_address_text_as_ipaddress_does()
    test_loader_reads_prefix_text_as_ipaddress_does()
    if given is not None:
        test_loader_reads_any_text_as_ipaddress_does()
    print("parsed addresses: ok" + ("" if given else " (no hypothesis: differential test left out)"))

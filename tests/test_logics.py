"""Built-in logics: chaining, content tags, network separation, opaque wrap."""

import itertools
import sys
from ipaddress import IPv4Address, IPv6Address, ip_address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvn import errors
from gvn.codec import (
    GVN_PROTOCOL,
    GvnHeader,
    classify,
    pop_gvn,
    push_gvn,
    replace_pl_data,
    strip_gvn,
)
from gvn.framework import ActionKind, DropReason, LocalAddresses, PlAction
from gvn.logics import (
    ICN_CODE,
    NFV_CODE,
    OPAQUE_DEMO_CODE,
    VPN_CODE,
    NfvChainData,
    ServiceChain,
    VpnData,
    content_tag,
    icn_tag,
    make_icn_handler,
    make_nfv_handler,
    make_vpn_handler,
    nfv_encap,
    nfv_step,
    vpn_check,
    vpn_tag,
    wrap_opaque,
)
from gvn.logics.icn import icn_route
from gvn.logics.nfv import SI_MAX, SPI_MAX
from gvn.packet import IpPacket, make_packet


def _chain(n, spi=7):
    # 10.1.0.1, 10.1.0.2, ...
    return ServiceChain(spi=spi, functions=tuple(IPv4Address(0x0A010001 + i) for i in range(n)))


def _local_to(address):
    return LocalAddresses({address})


def _packet(payload=b"through the chain"):
    return make_packet(4, "10.0.0.1", "10.0.9.9", 17, 64, payload)


# -- chain data layout -------------------------------------------------------

def test_chain_data_v4_layout():
    data = NfvChainData(spi=0x0A0B0C, si=3, original_dst=ip_address("10.0.9.9"))
    wire = data.to_bytes()
    assert wire == bytes([1, 0x0A, 0x0B, 0x0C, 3, 4, 0, 0]) + bytes([10, 0, 9, 9])
    assert len(wire) == 12
    assert NfvChainData.from_bytes(wire) == data


def test_chain_data_v6_layout():
    dst = ip_address("2001:db8::99")
    data = NfvChainData(spi=1, si=1, original_dst=dst)
    wire = data.to_bytes()
    assert len(wire) == 24
    assert wire[5] == 6
    assert NfvChainData.from_bytes(wire).original_dst == dst


def test_chain_data_rejects_bad_family_and_length():
    with pytest.raises(errors.PlDataError):
        NfvChainData.from_bytes(bytes([1, 0, 0, 1, 1, 9, 0, 0]) + bytes(4))
    with pytest.raises(errors.PlDataError):
        NfvChainData.from_bytes(bytes([1, 0, 0, 1, 1, 4, 0, 0]) + bytes(7))


# -- chain entry ---------------------------------------------------------------

def test_encap_saves_destination_and_steers_to_first_hop():
    chain = _chain(3)
    packet = _packet()
    tagged, header = nfv_encap(packet, chain)
    assert tagged.protocol == GVN_PROTOCOL
    assert tagged.dst == chain.functions[0]
    assert header == classify(tagged).header
    assert header.code == NFV_CODE
    data = NfvChainData.from_bytes(header.pl_data)
    assert data.si == 3
    assert data.spi == 7
    assert data.original_dst == packet.dst


def test_encap_single_function_chain():
    tagged, header = nfv_encap(_packet(), _chain(1))
    data = NfvChainData.from_bytes(header.pl_data)
    assert data.si == 1
    assert tagged.dst == ip_address("10.1.0.1")


@pytest.mark.parametrize("spi, n, error, message", [
    (1, 0, errors.EmptyChain, "chain 1 has no functions"),
    (SPI_MAX + 1, 1, errors.PlDataError, "spi 16777216 outside 24 bits"),
    (-1, 1, errors.PlDataError, "spi -1 outside 24 bits"),
    (1, SI_MAX + 1, errors.PlDataError, "chain 1 has 256 functions, more than 255"),
], ids=["empty", "spi_too_large", "spi_negative", "too_long"])
def test_a_chain_nfv_encap_cannot_encode_is_refused(spi, n, error, message):
    # Refused when built, not when a run first enters a packet into it.
    with pytest.raises(error) as refused:
        _chain(n, spi)
    assert str(refused.value) == message


def test_a_chain_at_the_encoding_limits_is_built():
    tagged, header = nfv_encap(_packet(), _chain(SI_MAX, SPI_MAX))
    data = NfvChainData.from_bytes(header.pl_data)
    assert (data.spi, data.si, tagged.dst) == (SPI_MAX, SI_MAX, ip_address("10.1.0.1"))


def test_encap_already_tagged():
    tagged = push_gvn(_packet(), GvnHeader(next_header=17, code=5))
    with pytest.raises(errors.AlreadyTagged):
        nfv_encap(tagged, _chain(2))


# -- chain stepping ---------------------------------------------------------------

def test_step_decrements_and_rewrites():
    chain = _chain(3)
    table = {7: chain}
    current, header = nfv_encap(_packet(), chain)
    action = nfv_step(header, current, table)
    assert action.kind is ActionKind.REWRITE_AND_FORWARD
    stepped = action.packet
    assert stepped.dst == chain.functions[1]
    assert stepped.protocol == GVN_PROTOCOL
    assert action.header == classify(stepped).header
    assert NfvChainData.from_bytes(action.header.pl_data).si == 2


def test_final_step_restores_original_packet_exactly():
    for n in range(1, 5):
        chain = _chain(n)
        table = {7: chain}
        original = _packet()
        current, header = nfv_encap(original, chain)
        for hop in chain.functions:
            action = nfv_step(header, current, table)
            assert action.kind is ActionKind.REWRITE_AND_FORWARD
            current, header = action.packet, action.header
            # the header reported with the rewrite is the one on the packet
            assert header == classify(current).header
        assert header is None
        assert current.to_bytes() == original.to_bytes()


def test_step_unknown_spi_drops():
    chain = _chain(2)
    current, header = nfv_encap(_packet(), chain)
    action = nfv_step(header, current, {})
    assert action.kind is ActionKind.DROP
    assert action.reason is DropReason.UNKNOWN_SPI
    assert action.note == "spi=7"


def _step_with(pl_data, dst_at=0):
    """``nfv_step`` of a three-function chain (spi 7) on a packet carrying
    ``pl_data``, addressed to function ``dst_at``."""
    chain = _chain(3)
    header = GvnHeader(next_header=17, code=NFV_CODE, pl_data=pl_data)
    packet = push_gvn(_packet(), header).with_dst(chain.functions[dst_at])
    return nfv_step(header, packet, {7: chain})


def _chain_data(version=1, si=3, family=4, reserved=(0, 0)):
    return bytes([version, 0, 0, 7, si, family, *reserved, 10, 0, 9, 9])


@pytest.mark.parametrize("pl_data, note", [
    (_chain_data(version=2), "unsupported chain data version 2"),
    (_chain_data(family=5), "unknown address family 5"),
    (bytes(4), "chain data needs >= 8 octets, got 4"),
    (_chain_data() + bytes(4), "family 4 chain data must be 12 octets, got 16"),
    (_chain_data(family=6), "family 6 chain data must be 24 octets, got 12"),
    # The version is checked after the family, so the family note wins.
    (_chain_data(version=2, family=5), "unknown address family 5"),
], ids=["version-2", "family-5", "4-bytes", "family-4-16-bytes", "family-6-12-bytes",
        "version-2-family-5"])
def test_step_malformed_chain_data_drops(pl_data, note):
    action = _step_with(pl_data)
    assert (action.kind, action.reason, action.note) == (
        ActionKind.DROP, DropReason.MALFORMED_PL, note)


@pytest.mark.parametrize("si, dst_at, note", [
    (0, 0, "spi=7 si=0 n=3"),
    (4, 0, "spi=7 si=4 n=3"),
    # si 3 points at function 1, but the packet is addressed to function 2.
    (3, 1, "spi=7 si=3 expected dst 10.1.0.1, packet has 10.1.0.2"),
], ids=["si-0", "si-n-plus-1", "expected-dst"])
def test_step_si_mismatch_drops(si, dst_at, note):
    action = _step_with(_chain_data(si=si), dst_at)
    assert (action.kind, action.reason, action.note) == (
        ActionKind.DROP, DropReason.SI_MISMATCH, note)


def test_step_rewrites_nonzero_reserved_octets_as_zero():
    action = _step_with(_chain_data(si=3, reserved=(0xAB, 0xCD)))
    assert (action.kind, action.note) == (ActionKind.REWRITE_AND_FORWARD, "spi=7 si=2 dst=10.1.0.2")
    assert action.header.pl_data == _chain_data(si=2)
    assert action.header == classify(action.packet).header


@pytest.mark.parametrize("spi, si, message", [
    (-1, 1, "spi -1 outside 24 bits"),
    (1 << 24, 1, "spi 16777216 outside 24 bits"),
    (1, -1, "si -1 outside 8 bits"),
    (1, 256, "si 256 outside 8 bits"),
])
def test_chain_data_refuses_out_of_range_fields(spi, si, message):
    with pytest.raises(errors.PlDataError, match=message):
        NfvChainData(spi=spi, si=si, original_dst=ip_address("10.0.9.9"))


def test_only_in_order_traversal_completes():
    # Brute force every visiting order for chains of length 1..4: a packet
    # reaches the restored state only by visiting functions in chain order.
    for n in range(1, 5):
        chain = _chain(n)
        table = {7: chain}
        original = _packet()
        completions = []
        for order in itertools.permutations(range(n)):
            current, _header = nfv_encap(original, chain)
            restored = False
            for index in order:
                handler = make_nfv_handler(table).handler
                header = classify(current).header
                if header is None:
                    break  # header already stripped; chain is done
                action = handler(header, current, _local_to(chain.functions[index]))
                if action.kind is not ActionKind.REWRITE_AND_FORWARD:
                    break  # off-path step: steered away or dropped
                current = action.packet
                restored = current.protocol != GVN_PROTOCOL
            if restored:
                assert current.to_bytes() == original.to_bytes()
                completions.append(order)
        assert completions == [tuple(range(n))]


def test_si_strictly_decreases_along_chain():
    chain = _chain(4)
    table = {7: chain}
    current, header = nfv_encap(_packet(), chain)
    seen = []
    for hop in chain.functions:
        seen.append(NfvChainData.from_bytes(header.pl_data).si)
        action = nfv_step(header, current, table)
        current, header = action.packet, action.header
    assert seen == [4, 3, 2, 1]


def _reference_step(header, packet, chain_table):
    """``nfv_step`` composed of the public calls, with the chain data read
    here: ``replace_pl_data`` or ``strip_gvn``, then ``with_dst``."""
    data = header.pl_data
    if len(data) < 8:
        return PlAction.drop(DropReason.MALFORMED_PL,
                             note=f"chain data needs >= 8 octets, got {len(data)}")
    version, spi, si, family = data[0], int.from_bytes(data[1:4], "big"), data[4], data[5]
    if family not in (4, 6):
        return PlAction.drop(DropReason.MALFORMED_PL, note=f"unknown address family {family}")
    want = 12 if family == 4 else 24
    if len(data) != want:
        return PlAction.drop(DropReason.MALFORMED_PL, note=f"family {family} chain data "
                                                           f"must be {want} octets, got {len(data)}")
    if version != 1:
        return PlAction.drop(DropReason.MALFORMED_PL,
                             note=f"unsupported chain data version {version}")
    chain = chain_table.get(spi)
    if chain is None:
        return PlAction.drop(DropReason.UNKNOWN_SPI, note=f"spi={spi}")
    n = len(chain.functions)
    if not 1 <= si <= n:
        return PlAction.drop(DropReason.SI_MISMATCH, note=f"spi={spi} si={si} n={n}")
    expected = chain.functions[n - si]
    if expected != packet.dst:
        return PlAction.drop(DropReason.SI_MISMATCH, note=f"spi={spi} si={si} expected dst "
                                                          f"{expected}, packet has {packet.dst}")
    if si > 1:
        dst = chain.functions[n - si + 1]
        steered, new_header = replace_pl_data(
            packet, header, data[:4] + bytes([si - 1, family, 0, 0]) + data[8:])
        note = f"spi={spi} si={si - 1} dst={dst}"
    else:
        dst = (IPv4Address if family == 4 else IPv6Address)(data[8:])
        steered, new_header = strip_gvn(packet, header), None
        note = f"spi={spi} si=0 restored dst={dst}"
    try:
        steered = steered.with_dst(dst)
    except errors.InvalidPacket as exc:
        return PlAction.drop(DropReason.FAMILY_MISMATCH, note=str(exc))
    return PlAction.rewrite_and_forward(steered, new_header, note=note)


def _of_family(family, value):
    return IPv4Address(value % 2 ** 32) if family == 4 else IPv6Address(value)


def _chain_case(version, families, si, *, at="same", exit_family=None, reserved=b"\0\0",
                known=True, pl_data=None, transport=b"", next_header=17, flags=0, seed=0):
    """A header, a packet tagged with it and a chain table for ``nfv_step``.
    The chain (spi 7, or 0x00ABCD) has a function of each of ``families``;
    the chain data counts ``si`` and saves a destination of ``exit_family``
    (the packet's, by default), unless ``pl_data`` replaces it.  The packet
    of ``version`` carries ``transport`` and is addressed, when the function
    ``si`` points at is of its family, to that very object (``at="same"``),
    to an equal one (``"equal"``), or else to another address."""
    spi = 7 if seed % 2 else 0x00ABCD
    functions = tuple(_of_family(family, 0x0A010001 + i + seed) for i, family in enumerate(families))
    exit_family = version if exit_family is None else exit_family
    saved = _of_family(exit_family, 0x0A000909 + seed)
    if pl_data is None:
        pl_data = (bytes([1]) + spi.to_bytes(3, "big") + bytes([si, exit_family]) + reserved
                   + saved.packed)
    addressed = functions[len(functions) - si] if 1 <= si <= len(functions) else None
    if addressed is None or addressed.version != version or at == "other":
        dst = _of_family(version, 0x0A630001 + seed)
    else:
        dst = addressed if at == "same" else ip_address(str(addressed))
    header = GvnHeader(next_header=next_header, code=NFV_CODE, flags=flags, pl_data=pl_data)
    packet = push_gvn(IpPacket(version, _of_family(version, 0x0A000001), dst, next_header, 64,
                               transport), header)
    return header, packet, {spi: ServiceChain(spi=spi, functions=functions)} if known else {}


def _assert_steps_alike(header, packet, chain_table):
    got = nfv_step(header, packet, chain_table)
    want = _reference_step(header, packet, chain_table)
    assert (got.kind, got.reason, got.note, got.next_hop) == (
        want.kind, want.reason, want.note, want.next_hop)
    assert got.header == want.header
    if want.packet is None:
        assert got.packet is None
        return got
    assert got.packet.__dict__ == want.packet.__dict__
    assert type(got.packet.dst) is type(want.packet.dst)
    assert got.packet.to_bytes() == want.packet.to_bytes()
    assert got.header == classify(got.packet).header
    return got


@pytest.mark.parametrize("version, families, si, options, outcome", [
    (4, (4, 4, 4), 3, {}, ActionKind.REWRITE_AND_FORWARD),
    (6, (6, 6), 2, {}, ActionKind.REWRITE_AND_FORWARD),
    (4, (4, 4), 1, {}, ActionKind.REWRITE_AND_FORWARD),  # the chain exit to IPv4
    (6, (6,), 1, {}, ActionKind.REWRITE_AND_FORWARD),  # and to IPv6
    (4, (4, 4), 2, {"at": "equal"}, ActionKind.REWRITE_AND_FORWARD),
    (4, (4, 6), 2, {}, DropReason.FAMILY_MISMATCH),  # the next function is IPv6
    (6, (6,), 1, {"exit_family": 4}, DropReason.FAMILY_MISMATCH),
    (4, (4, 4), 2, {"pl_data": bytes(4)}, DropReason.MALFORMED_PL),
    (4, (4, 4), 2, {"known": False}, DropReason.UNKNOWN_SPI),
    (4, (4, 4), 3, {}, DropReason.SI_MISMATCH),
    (4, (4, 4), 2, {"at": "other"}, DropReason.SI_MISMATCH),
    (6, (6, 6, 6), 3, {"reserved": b"\xab\xcd"}, ActionKind.REWRITE_AND_FORWARD),
    (4, (4, 4, 4), 3, {"transport": b"trailing transport", "flags": 0x80, "next_header": 6},
     ActionKind.REWRITE_AND_FORWARD),
    (6, (6,), 1, {"transport": bytes(range(40)), "next_header": 58},
     ActionKind.REWRITE_AND_FORWARD),
], ids=["v4-step", "v6-step", "v4-exit", "v6-exit", "equal-dst", "next-of-other-family",
        "exit-to-other-family", "malformed", "unknown-spi", "si-mismatch", "dst-mismatch",
        "reserved-octets", "v4-transport", "v6-exit-transport"])
def test_step_matches_its_public_call_composition(version, families, si, options, outcome):
    got = _assert_steps_alike(*_chain_case(version, families, si, **options))
    assert (got.kind if got.reason is None else got.reason) is outcome


@st.composite
def _chain_cases(draw):
    version = draw(st.sampled_from((4, 6)))
    other = 10 - version
    families = draw(st.lists(st.sampled_from((version, version, version, other)),
                             min_size=1, max_size=4))
    options = {
        "at": draw(st.sampled_from(("same", "same", "equal", "other"))),
        "exit_family": draw(st.sampled_from((version, version, other))),
        "reserved": draw(st.binary(min_size=2, max_size=2)),
        "known": draw(st.integers(0, 5)) > 0,
        "transport": draw(st.binary(max_size=48)),
        "next_header": draw(st.integers(0, 255).filter(lambda value: value != GVN_PROTOCOL)),
        "flags": draw(st.integers(0, 255)),
        "seed": draw(st.integers(0, 2 ** 16)),
    }
    if draw(st.integers(0, 5)) == 0:  # malformed or foreign chain data
        options["pl_data"] = draw(st.binary(max_size=32).map(lambda b: b[:len(b) // 4 * 4]))
    return _chain_case(version, families, draw(st.integers(0, len(families) + 1)), **options)


@settings(max_examples=300, deadline=None)
@given(_chain_cases())
def test_any_step_matches_its_public_call_composition(case):
    _assert_steps_alike(*case)


def _packet_copies(step):
    """How many packets ``step()`` builds, whichever helper builds them: the
    ``tuple.__new__`` calls made from ``IpPacket``'s own methods, the
    constructor's included, that sys.setprofile reports."""
    functions = (getattr(value, "__func__", value) for value in vars(IpPacket).values())
    methods = {function.__code__ for function in functions if hasattr(function, "__code__")}
    copies = 0

    def profile(frame, event, arg):
        nonlocal copies
        if event == "c_call" and arg is tuple.__new__:
            copies += frame.f_code in methods

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = step()
    finally:
        sys.setprofile(previous)
    return copies, result


def test_each_step_makes_one_packet_copy():
    packet = _packet()
    assert _packet_copies(lambda: packet.with_dst(ip_address("10.0.0.2")))[0] == 1
    assert _packet_copies(lambda: packet.with_protocol_and_payload(17, b"").with_ttl(3))[0] == 2
    assert _packet_copies(lambda: make_packet(4, "10.0.0.1", "10.0.0.2", 17, 64))[0] == 1
    for version in (4, 6):
        chain = ServiceChain(spi=7, functions=tuple(
            _of_family(version, 0x0A010001 + i) for i in range(3)))
        packet = IpPacket(version, _of_family(version, 1), _of_family(version, 2), 17, 64, b"x")
        current, header = nfv_encap(packet, chain)
        while header is not None:
            copies, action = _packet_copies(lambda: nfv_step(header, current, {7: chain}))
            assert action.kind is ActionKind.REWRITE_AND_FORWARD and copies == 1
            current, header = action.packet, action.header
        assert current == packet


def test_handler_steers_by_ip_when_not_addressed():
    chain = _chain(2)
    binding = make_nfv_handler({7: chain})
    assert binding.code == NFV_CODE
    current, header = nfv_encap(_packet(), chain)
    action = binding.handler(header, current, LocalAddresses({ip_address("10.99.0.1")}))
    assert action.kind is ActionKind.FORWARD_BY_IP


# -- content tagging -----------------------------------------------------------

def test_content_tag_frozen_digests():
    # First 8 octets of the standard 256-bit digest of the UTF-8 name,
    # computed independently beforehand.
    assert content_tag("a") == bytes.fromhex("ca978112ca1bbdca")
    assert content_tag("b") == bytes.fromhex("3e23e8160039594a")
    assert content_tag("video/abc") == bytes.fromhex("329f626159a058b1")


def test_icn_tag_deterministic():
    packet = _packet(b"GET video/abc")
    assert icn_tag(packet, "video/abc").to_bytes() == icn_tag(packet, "video/abc").to_bytes()


def test_icn_distinct_names_distinct_tags():
    assert content_tag("a") != content_tag("b")


def test_icn_pop_recovers_packet():
    packet = _packet(b"GET video/abc")
    tagged = icn_tag(packet, "video/abc")
    assert classify(tagged).header.code == ICN_CODE
    popped, header = pop_gvn(tagged)
    assert popped.to_bytes() == packet.to_bytes()
    assert header.pl_data == content_tag("video/abc")


def test_icn_route_table_hit_and_fallback():
    tagged = icn_tag(_packet(), "video/abc")
    table = {content_tag("video/abc"): "cache"}
    hit = icn_route(classify(tagged).header, table)
    assert hit.kind is ActionKind.FORWARD_TO
    assert hit.next_hop == "cache"
    miss = icn_route(classify(icn_tag(_packet(), "news/front-page")).header, table)
    assert miss.kind is ActionKind.FORWARD_BY_IP


def test_icn_per_node_tables_differ():
    tagged = icn_tag(_packet(), "video/abc")
    local = LocalAddresses()
    a = make_icn_handler({content_tag("video/abc"): "left"})
    b = make_icn_handler({content_tag("video/abc"): "right"})
    assert a.handler(classify(tagged).header, tagged, local).next_hop == "left"
    assert b.handler(classify(tagged).header, tagged, local).next_hop == "right"


# -- network separation -----------------------------------------------------------

def test_vpn_data_layout():
    assert VpnData(0xDEADBEEF).to_bytes() == bytes.fromhex("deadbeef00000000")
    assert VpnData.from_bytes(bytes.fromhex("0000000a00000000")).vnid == 10


@pytest.mark.parametrize("vnid", [-1, 1 << 32])
def test_vpn_data_refuses_out_of_range_vnid(vnid):
    with pytest.raises(errors.PlDataError, match=f"vnid {vnid} outside 32 bits"):
        VpnData(vnid)


def test_vpn_allowed_forwards():
    tagged = vpn_tag(_packet(), 10)
    assert classify(tagged).header.code == VPN_CODE
    action = vpn_check(classify(tagged).header, {10, 20})
    assert action.kind is ActionKind.FORWARD_BY_IP


def test_vpn_disallowed_drops():
    action = vpn_check(classify(vpn_tag(_packet(), 30)).header, {10, 20})
    assert action.kind is ActionKind.DROP
    assert action.reason is DropReason.VPN_VIOLATION


def test_vpn_empty_allowed_set_drops_everything():
    handler = make_vpn_handler(frozenset()).handler
    for vnid in range(8):
        tagged = vpn_tag(_packet(), vnid)
        action = handler(classify(tagged).header, tagged, LocalAddresses())
        assert action.kind is ActionKind.DROP


# -- opaque wrap --------------------------------------------------------------------

def test_wrap_pads_to_alignment():
    header = wrap_opaque(b"\x01\x02\x03\x04\x05")
    assert header.length_units == 4
    assert header.total_length == 16
    assert header.pl_data == b"\x01\x02\x03\x04\x05\x00\x00\x00"
    assert header.code == OPAQUE_DEMO_CODE


def test_wrap_empty_payload_is_minimal_header():
    header = wrap_opaque(b"")
    assert header.total_length == 8
    assert header.pl_data == b""


def test_wrap_oversize():
    with pytest.raises(errors.Oversize):
        wrap_opaque(bytes(1009))
    assert wrap_opaque(bytes(1008)).total_length == 1016


def test_wrapped_header_round_trips():
    from gvn.codec import parse_gvn, serialize_gvn
    header = wrap_opaque(b"foreign service header bytes", next_header=6)
    assert parse_gvn(serialize_gvn(header)) == header

"""Built-in logics: chaining, content tags, network separation, opaque wrap."""

import itertools
from ipaddress import ip_address

import pytest

from gvn import errors
from gvn.codec import GVN_PROTOCOL, GvnHeader, classify, pop_gvn, push_gvn
from gvn.framework import ActionKind, DropReason, LocalAddresses
from gvn.logics import (
    ICN_CODE,
    NFV_CODE,
    OPAQUE_DEMO_CODE,
    VPN_CODE,
    ChainHop,
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
from gvn.packet import make_packet


def _chain(n, spi=7):
    hops = tuple(ChainHop(ip_address(f"10.1.0.{i + 1}"), f"f{i + 1}") for i in range(n))
    return ServiceChain(spi=spi, functions=hops)


def _local_to(hop):
    return LocalAddresses({hop.address})


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
    assert tagged.dst == chain.functions[0].address
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


def test_encap_empty_chain():
    with pytest.raises(errors.EmptyChain):
        nfv_encap(_packet(), ServiceChain(spi=1, functions=()))


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
    assert stepped.dst == chain.functions[1].address
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


def _step_with(pl_data, dst_at=0):
    """``nfv_step`` of a three-function chain (spi 7) on a packet carrying
    ``pl_data``, addressed to function ``dst_at``."""
    chain = _chain(3)
    header = GvnHeader(next_header=17, code=NFV_CODE, pl_data=pl_data)
    packet = push_gvn(_packet(), header).with_dst(chain.functions[dst_at].address)
    return nfv_step(header, packet, {7: chain})


def _chain_data(version=1, si=3, family=4):
    return bytes([version, 0, 0, 7, si, family, 0, 0, 10, 0, 9, 9])


@pytest.mark.parametrize("pl_data, note", [
    (_chain_data(version=2), "unsupported chain data version 2"),
    (_chain_data(family=5), "unknown address family 5"),
    (bytes(4), "chain data needs >= 8 octets, got 4"),
    # The version is checked after the family, so the family note wins.
    (_chain_data(version=2, family=5), "unknown address family 5"),
], ids=["version-2", "family-5", "4-bytes", "version-2-family-5"])
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

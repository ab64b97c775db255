"""Header codec: wire layout, push/pop, classification, checksum."""

import random
from dataclasses import replace
from ipaddress import ip_address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvn import errors
from gvn.codec import (
    CODE_MAX,
    GVN_PROTOCOL,
    GvnHeader,
    classify,
    parse_gvn,
    pop_gvn,
    push_gvn,
    serialize_gvn,
    strip_gvn,
)
from gvn.packet import (
    ipv4_checksum_valid,
    ipv4_header_checksum,
    make_packet,
)

from .oracles import byte_walk_header, checksum_loop, random_ipv4_header, sum16

# -- strategies ---------------------------------------------------------------

headers = st.builds(
    GvnHeader,
    next_header=st.integers(0, 255),
    code=st.integers(0, CODE_MAX),
    flags=st.integers(0, 255),
    pl_data=st.binary(max_size=252).map(lambda b: b[: len(b) - len(b) % 4]),
)


def _udp_packet(payload=b"ping", **kw):
    return make_packet(4, "192.168.0.1", "192.168.0.199", 17, 64, payload, **kw)


# -- parse --------------------------------------------------------------------

def test_parse_minimal_header():
    data = bytes([0x02, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2A])
    header = parse_gvn(data)
    assert header.length_units == 2
    assert header.next_header == 17
    assert header.flags == 0
    assert header.code == 42
    assert header.pl_data == b""


def test_parse_with_pl_data():
    data = bytes([0x03, 0x06, 0x00]) + bytes(5) + b"\xAA\xBB\xCC\xDD"
    header = parse_gvn(data)
    assert header.total_length == 12
    assert header.pl_data == b"\xAA\xBB\xCC\xDD"


def test_parse_reserved_length():
    with pytest.raises(errors.ReservedLength):
        parse_gvn(b"\xFF" + bytes(7))


@pytest.mark.parametrize("first", [0, 1])
def test_parse_invalid_length(first):
    with pytest.raises(errors.InvalidLength):
        parse_gvn(bytes([first]) + bytes(7))


def test_parse_truncated_short_buffer():
    with pytest.raises(errors.TruncatedHeader):
        parse_gvn(bytes(7))


def test_parse_truncated_declared_length():
    with pytest.raises(errors.TruncatedHeader):
        parse_gvn(bytes([0x04, 17, 0]) + bytes(5))  # declares 16, has 8


def test_parse_ignores_trailing_bytes():
    data = bytes([0x02, 0x06, 0x00]) + bytes(5) + b"transport bytes here"
    header = parse_gvn(data)
    assert header.total_length == 8
    assert header.pl_data == b""


# parse_gvn builds headers without GvnHeader's checks; these inputs cover
# every valid length, then cut some short or give them a refused length.
ORACLE_ERRORS = {
    "truncated": errors.TruncatedHeader,
    "invalid-length": errors.InvalidLength,
    "reserved": errors.ReservedLength,
}


@st.composite
def header_wires(draw):
    units = draw(st.integers(2, 254))
    wire = (bytes([units]) + draw(st.binary(min_size=4 * units - 1, max_size=4 * units - 1))
            + draw(st.binary(max_size=8)))
    mangle = draw(st.sampled_from(["none", "truncate", "length"]))
    if mangle == "truncate":
        wire = wire[:draw(st.integers(0, 4 * units - 1))]
    elif mangle == "length":
        wire = bytes([draw(st.sampled_from([0, 1, 255]))]) + wire[1:]
    return wire


@given(header_wires())
@settings(max_examples=300)
def test_trusted_parse_equals_checked_construction(wire):
    try:
        walked = byte_walk_header(wire)
    except ValueError as exc:
        with pytest.raises(ORACLE_ERRORS[str(exc)]):
            parse_gvn(wire)
        return
    header = parse_gvn(wire)
    checked = GvnHeader(next_header=walked["next_header"], code=walked["code"],
                        flags=walked["flags"], pl_data=walked["pl_data"])
    assert header == checked
    assert type(header.pl_data) is bytes
    assert header.length_units == walked["length_units"]
    assert serialize_gvn(header) == wire[:walked["total"]]


# -- serialize ------------------------------------------------------------------

def test_serialize_minimal_header():
    header = GvnHeader(next_header=6, code=1)
    assert serialize_gvn(header) == bytes([0x02, 0x06, 0x00, 0, 0, 0, 0, 0x01])


def test_serialize_rejects_unaligned_pl_data():
    with pytest.raises(errors.InvalidHeader):
        GvnHeader(next_header=6, code=1, pl_data=b"abc")


def test_serialize_rejects_oversized_pl_data():
    with pytest.raises(errors.InvalidHeader):
        GvnHeader(next_header=6, code=1, pl_data=bytes(1012))


def test_header_rejects_out_of_range_code():
    with pytest.raises(errors.InvalidHeader):
        GvnHeader(next_header=6, code=CODE_MAX + 1)
    with pytest.raises(errors.InvalidHeader):
        GvnHeader(next_header=6, code=-1)


@given(headers)
def test_roundtrip_matches_byte_walk(header):
    wire = serialize_gvn(header)
    assert parse_gvn(wire) == header
    walked = byte_walk_header(wire)
    assert walked["length_units"] == header.length_units
    assert walked["next_header"] == header.next_header
    assert walked["flags"] == header.flags
    assert walked["code"] == header.code
    assert walked["pl_data"] == header.pl_data


def test_length_law_exhaustive():
    # Every first-octet value: 2..254 parse and re-serialize exactly,
    # 0, 1 and 255 are rejected.
    for length_units in range(256):
        wire = bytes([length_units, 17, 0]) + bytes(max(4 * length_units, 8) - 3)
        if length_units in (0, 1):
            with pytest.raises(errors.InvalidLength):
                parse_gvn(wire)
        elif length_units == 255:
            with pytest.raises(errors.ReservedLength):
                parse_gvn(wire)
        else:
            header = parse_gvn(wire)
            assert header.total_length == 4 * length_units
            assert 8 <= header.total_length <= 1016
            assert serialize_gvn(header) == wire[: 4 * length_units]


@pytest.mark.parametrize("code", [0, 1, CODE_MAX])
def test_code_space_boundaries(code):
    header = GvnHeader(next_header=17, code=code)
    assert parse_gvn(serialize_gvn(header)).code == code


# -- push / pop -----------------------------------------------------------------

def test_push_tags_and_grows_payload():
    packet = _udp_packet()
    header = GvnHeader(next_header=17, code=42)
    tagged = push_gvn(packet, header)
    assert tagged.protocol == GVN_PROTOCOL
    assert len(tagged.payload) == len(packet.payload) + 8
    assert tagged.payload[8:] == packet.payload
    assert tagged.src == packet.src and tagged.dst == packet.dst
    assert tagged.ttl == packet.ttl
    # length field and checksum repaired
    wire = tagged.to_bytes()
    assert int.from_bytes(wire[2:4], "big") == len(wire)
    assert ipv4_checksum_valid(wire[:20])
    assert sum16(wire[:20]) == 0xFFFF


def test_push_rejects_double_tagging():
    tagged = push_gvn(_udp_packet(), GvnHeader(next_header=17, code=1))
    with pytest.raises(errors.AlreadyTagged):
        push_gvn(tagged, GvnHeader(next_header=GVN_PROTOCOL, code=2))


def test_push_rejects_next_header_mismatch():
    with pytest.raises(errors.NextHeaderMismatch):
        push_gvn(_udp_packet(), GvnHeader(next_header=6, code=1))


def test_push_rejects_oversize():
    packet = _udp_packet(payload=bytes(65509))  # 20 + 65509 + 8 > 65535
    with pytest.raises(errors.OversizePacket):
        push_gvn(packet, GvnHeader(next_header=17, code=1))


def test_pop_untagged_raises():
    with pytest.raises(errors.NotTagged):
        pop_gvn(_udp_packet())


def test_pop_malformed_header_propagates():
    bad = _udp_packet().with_protocol_and_payload(GVN_PROTOCOL, b"\xFF" + bytes(7))
    with pytest.raises(errors.ReservedLength):
        pop_gvn(bad)


packets = st.one_of(
    st.builds(
        make_packet,
        st.just(4),
        st.ip_addresses(v=4).map(str),
        st.ip_addresses(v=4).map(str),
        st.sampled_from([1, 6, 17, 132]),
        st.integers(1, 255),
        st.binary(max_size=1400),
    ),
    st.builds(
        make_packet,
        st.just(6),
        st.ip_addresses(v=6).map(str),
        st.ip_addresses(v=6).map(str),
        st.sampled_from([6, 17, 58, 132]),
        st.integers(1, 255),
        st.binary(max_size=1400),
    ),
)


@given(packets, headers)
@settings(max_examples=200)
def test_push_pop_inverse(packet, header):
    header = GvnHeader(next_header=packet.protocol, code=header.code,
                       flags=header.flags, pl_data=header.pl_data)
    tagged = push_gvn(packet, header)
    if packet.version == 4:
        assert ipv4_checksum_valid(tagged.header_bytes)
        assert checksum_loop(tagged.header_bytes[:10] + b"\x00\x00"
                             + tagged.header_bytes[12:]) == \
            int.from_bytes(tagged.header_bytes[10:12], "big")
    popped, recovered = pop_gvn(tagged)
    assert recovered == header
    assert popped == packet
    assert strip_gvn(tagged, header) == packet
    assert popped.to_bytes() == packet.to_bytes()
    # transport opacity: the encapsulated bytes never change
    assert tagged.payload[header.total_length:] == packet.payload


# -- packet mangles ---------------------------------------------------------------

@given(packets, st.integers(0, 255), st.sampled_from([6, 17, GVN_PROTOCOL]),
       st.binary(max_size=64), st.integers(0, 7))
def test_mangles_equal_constructor_built_packets(packet, ttl, protocol, payload, extra):
    if packet.version == 4:
        packet = replace(packet, tos=extra, ident=extra << 8, flags=extra, frag_offset=extra)
        dst = ip_address("10.9.8.7")
    else:
        packet = replace(packet, traffic_class=extra, flow_label=extra << 16)
        dst = ip_address("fd00::7")
    before = packet.to_bytes()
    # dataclasses.replace builds through the constructor
    assert packet.with_ttl(ttl) == replace(packet, ttl=ttl)
    assert packet.with_dst(dst) == replace(packet, dst=dst)
    assert (packet.with_protocol_and_payload(protocol, payload)
            == replace(packet, protocol=protocol, payload=payload))
    assert packet.to_bytes() == before


def test_mangles_keep_every_packet_check():
    v4 = _udp_packet()
    for ttl in (-1, 256):
        with pytest.raises(errors.InvalidPacket):
            v4.with_ttl(ttl)
    with pytest.raises(errors.InvalidPacket):
        v4.with_dst(ip_address("fd00::1"))
    with pytest.raises(errors.InvalidPacket):
        make_packet(6, "fd00::1", "fd00::2", 17, 64).with_dst(ip_address("10.0.0.1"))
    with pytest.raises(errors.InvalidPacket):
        v4.with_protocol_and_payload(256, b"")
    with pytest.raises(errors.InvalidPacket):
        v4.with_protocol_and_payload(17, bytes(65535))


# -- checksum -------------------------------------------------------------------

def test_checksum_worked_example():
    header = bytes.fromhex("450000730000400040110000c0a80001c0a800c7")
    assert ipv4_header_checksum(header) == 0xB861


def test_checksum_all_zero_header():
    assert ipv4_header_checksum(bytes(20)) == 0xFFFF


def test_checksum_ignores_existing_checksum_field():
    header = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
    assert ipv4_header_checksum(header) == 0xB861


@pytest.mark.parametrize("size", [0, 19, 21, 22])
def test_checksum_bad_length(size):
    with pytest.raises(errors.BadLength):
        ipv4_header_checksum(bytes(size))


def test_checksum_matches_loop_oracle():
    rng = random.Random(0xC5)
    for _ in range(1000):
        header = random_ipv4_header(rng)
        assert ipv4_header_checksum(header) == checksum_loop(header)


def test_checksum_self_verification_after_push():
    rng = random.Random(7)
    for _ in range(50):
        packet = make_packet(4, "10.1.2.3", "10.4.5.6", 17, rng.randrange(1, 255),
                             rng.randbytes(rng.randrange(64)))
        tagged = push_gvn(packet, GvnHeader(next_header=17, code=rng.randrange(CODE_MAX)))
        assert sum16(tagged.header_bytes) == 0xFFFF


# -- classify -------------------------------------------------------------------

def test_classify_plain_transport():
    cls = classify(make_packet(4, "1.2.3.4", "5.6.7.8", 6, 64, b"\x00" * 20))
    assert not cls.is_gvn
    assert cls.protocol == 6
    assert cls.diagnostic is None


def test_classify_valid_tagged_packet():
    tagged = push_gvn(_udp_packet(), GvnHeader(next_header=17, code=9))
    cls = classify(tagged)
    assert cls.is_gvn
    assert cls.header.code == 9


def test_classify_degrades_malformed_to_legacy():
    short = _udp_packet().with_protocol_and_payload(GVN_PROTOCOL, bytes(4))
    cls = classify(short)
    assert not cls.is_gvn
    assert cls.protocol == GVN_PROTOCOL
    assert "TruncatedHeader" in cls.diagnostic


def test_classify_reserved_length_diagnostic():
    bad = _udp_packet().with_protocol_and_payload(GVN_PROTOCOL, b"\xFF" + bytes(7))
    cls = classify(bad)
    assert not cls.is_gvn
    assert "ReservedLength" in cls.diagnostic

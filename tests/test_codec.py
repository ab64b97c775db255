"""Header codec: wire layout, push/pop, classification, checksum."""

import random
import struct
import sys
from ipaddress import ip_address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvn import errors
from gvn.codec import (
    CODE_MAX,
    GVN_PROTOCOL,
    Classification,
    GvnHeader,
    classify,
    parse_gvn,
    pop_gvn,
    push_gvn,
    replace_pl_data,
    serialize_gvn,
    strip_gvn,
)
from gvn.packet import (
    IpPacket,
    ipv4_checksum_valid,
    ipv4_header_checksum,
    make_packet,
)

from .oracles import (
    byte_walk_header,
    checksum_loop,
    gvn_header_bytes,
    ip_datagram,
    random_ipv4_header,
    random_packet,
    sum16,
)

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


def test_header_rejects_a_next_header_beyond_an_octet():
    with pytest.raises(errors.InvalidHeader, match="^next_header 256 not an octet$"):
        GvnHeader(256, 1)


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


@pytest.mark.parametrize("pl_data, message", [
    (b"abc", "pl_data length 3 not 4-aligned"),
    (bytes(1012), "pl_data length 1012 exceeds 1008"),
])
def test_replace_pl_data_checks_only_the_new_pl_data(pl_data, message):
    header = GvnHeader(next_header=17, code=5, flags=0x80, pl_data=bytes(4))
    tagged = push_gvn(_udp_packet(), header)
    with pytest.raises(errors.InvalidHeader, match=message):
        replace_pl_data(tagged, header, pl_data)
    packet, swapped = replace_pl_data(tagged, header, bytes(8))
    assert vars(swapped) == vars(GvnHeader(next_header=17, code=5, flags=0x80, pl_data=bytes(8)))
    assert swapped == classify(packet).header


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

def replaced(packet, **changes):
    """``packet`` with ``changes``, built through the checked constructor."""
    return IpPacket(**{**vars(packet), **changes})


@given(packets, st.integers(0, 255), st.sampled_from([6, 17, GVN_PROTOCOL]),
       st.binary(max_size=64), st.integers(0, 7))
def test_mangles_equal_constructor_built_packets(packet, ttl, protocol, payload, extra):
    if packet.version == 4:
        packet = replaced(packet, tos=extra, ident=extra << 8, flags=extra, frag_offset=extra)
        dst = ip_address("10.9.8.7")
    else:
        packet = replaced(packet, traffic_class=extra, flow_label=extra << 16)
        dst = ip_address("fd00::7")
    before = packet.to_bytes()
    assert packet.with_ttl(ttl) == replaced(packet, ttl=ttl)
    assert packet.with_dst(dst) == replaced(packet, dst=dst)
    assert (packet.with_protocol_and_payload(protocol, payload)
            == replaced(packet, protocol=protocol, payload=payload))
    assert packet.to_bytes() == before


def test_mangles_keep_every_packet_check():
    # Each mangle checks the fields it sets, with the constructor's messages.
    v4 = _udp_packet()
    v6 = make_packet(6, "fd00::1", "fd00::2", 17, 64)
    for packet in (v4, v6):
        for ttl in (-1, 256):
            with pytest.raises(errors.InvalidPacket, match=f"ttl must fit one octet, got {ttl}"):
                packet.with_ttl(ttl)
        for protocol in (-1, 256):
            with pytest.raises(errors.InvalidPacket,
                               match=f"protocol must fit one octet, got {protocol}"):
                packet.with_protocol_and_payload(protocol, b"")
    family = "address family does not match packet version"
    with pytest.raises(errors.InvalidPacket, match=family):
        v4.with_dst(ip_address("fd00::1"))
    with pytest.raises(errors.InvalidPacket, match=family):
        v6.with_dst(ip_address("10.0.0.1"))
    # The length limits: the largest payload passes, one byte more is refused.
    assert v4.with_protocol_and_payload(17, bytes(65515)).total_length == 65535
    with pytest.raises(errors.InvalidPacket, match="IPv4 total length exceeds 65535"):
        v4.with_protocol_and_payload(17, bytes(65516))
    assert len(v6.with_protocol_and_payload(17, bytes(65535)).payload) == 65535
    with pytest.raises(errors.InvalidPacket, match="IPv6 payload length exceeds 65535"):
        v6.with_protocol_and_payload(17, bytes(65536))


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


def test_checksum_valid_matches_sum_oracle():
    rng = random.Random(0x5EED)
    for _ in range(1000):
        header = random_ipv4_header(rng)
        filled = header[:10] + ipv4_header_checksum(header).to_bytes(2, "big") + header[12:]
        noise = rng.randbytes(rng.choice([20, 24, 40]))
        for candidate in (header, filled, noise):
            assert ipv4_checksum_valid(candidate) == (sum16(candidate) == 0xFFFF)
        assert ipv4_checksum_valid(filled)


def test_checksum_valid_all_zero_header_is_invalid():
    assert sum16(bytes(20)) == 0
    assert not ipv4_checksum_valid(bytes(20))


def test_checksum_zero_is_a_valid_checksum():
    # The worked example's other words sum to 0x479E; an ident of 0xB861
    # brings the sum to 0xFFFF, whose checksum is 0x0000.
    header = bytes.fromhex("45000073b86140004011" "0000" "c0a80001c0a800c7")
    assert ipv4_header_checksum(header) == 0x0000
    assert sum16(header) == 0xFFFF
    assert ipv4_checksum_valid(header)


@pytest.mark.parametrize("size", [0, 19, 21, 22])
def test_checksum_valid_bad_length(size):
    with pytest.raises(errors.BadLength):
        ipv4_checksum_valid(bytes(size))


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


@pytest.mark.parametrize("payload", [None, bytes(4), b"\x02\x11\x00" + bytes(5)])
def test_classify_returns_a_whole_classification(payload):
    # None: untagged; 4 bytes: truncated; 8 bytes: a well-formed header.
    packet = _udp_packet()
    if payload is not None:
        packet = packet.with_protocol_and_payload(GVN_PROTOCOL, payload)
    cls = classify(packet)
    assert type(cls) is Classification
    assert len(cls) == len(Classification._fields)
    assert cls == Classification(*cls)


# -- IP wire format -------------------------------------------------------------

@pytest.mark.parametrize("version", [4, 6])
def test_ip_packet_round_trips_through_bytes(version):
    rng = random.Random(version)
    for _ in range(200):
        fields = random_packet(rng, version, max_payload=64)
        if version == 4:
            fields.update(tos=rng.randrange(256), ident=rng.randrange(1 << 16),
                          flags=rng.randrange(8), frag_offset=rng.randrange(1 << 13))
        else:
            fields.update(traffic_class=rng.randrange(256), flow_label=rng.randrange(1 << 20))
        packet = IpPacket(**fields)
        parsed = IpPacket.from_bytes(packet.to_bytes())
        assert parsed == packet
        # The parser builds without the constructor: the same twelve fields.
        assert vars(parsed) == vars(packet)
        assert hash(parsed) == hash(packet)


def _payloads(limit):
    # Lengths near 0, near ``limit`` and between: a drawn pattern repeated to
    # a drawn length, since hypothesis draws no 64 KB buffer itself.
    return st.builds(lambda pattern, size: (pattern * (size // len(pattern) + 1))[:size],
                     st.binary(min_size=1, max_size=8),
                     st.one_of(st.integers(0, 64), st.integers(limit - 64, limit),
                               st.integers(0, limit)))


datagrams = st.one_of(
    st.fixed_dictionaries({
        "version": st.just(4), "src": st.ip_addresses(v=4), "dst": st.ip_addresses(v=4),
        "protocol": st.integers(0, 255), "ttl": st.integers(0, 255),
        "payload": _payloads(65515), "tos": st.integers(0, 255),
        "ident": st.integers(0, 0xFFFF), "flags": st.integers(0, 7),
        "frag_offset": st.integers(0, 0x1FFF)}),
    st.fixed_dictionaries({
        "version": st.just(6), "src": st.ip_addresses(v=6), "dst": st.ip_addresses(v=6),
        "protocol": st.integers(0, 255), "ttl": st.integers(0, 255),
        "payload": _payloads(65535), "traffic_class": st.integers(0, 255),
        "flow_label": st.integers(0, 0xFFFFF)}),
)


@given(datagrams)
@settings(max_examples=300)
def test_datagram_bytes_match_the_byte_oracle(fields):
    packet = IpPacket(**fields)
    wire = ip_datagram(**fields)
    assert packet.to_bytes() == wire
    parsed = IpPacket.from_bytes(wire)
    assert parsed == packet
    assert vars(parsed) == vars(packet)


@st.composite
def _pushes(draw):
    # An untagged datagram and the header to push onto it; half the pushes
    # land within 8 octets of the IP length limit, on either side of it.
    fields = dict(draw(datagrams.filter(lambda f: f["protocol"] != GVN_PROTOCOL)))
    pl_data = draw(_payloads(1008).map(lambda b: b[:len(b) - len(b) % 4]))
    header = GvnHeader(fields["protocol"], draw(st.integers(0, CODE_MAX)),
                       draw(st.integers(0, 255)), pl_data)
    if draw(st.booleans()):
        room = (65515 if fields["version"] == 4 else 65535) - 8 - len(pl_data)
        size = room + draw(st.integers(-8, 8))
        fields["payload"] = (fields["payload"] + bytes(size))[:size]
    return fields, header


@given(_pushes())
@settings(max_examples=300)
def test_push_writes_the_byte_oracle_and_pop_restores_it(case):
    fields, header = case
    packet = IpPacket(**fields)
    tagged = gvn_header_bytes(header) + fields["payload"]
    if len(tagged) > (65515 if packet.version == 4 else 65535):
        with pytest.raises(errors.OversizePacket):
            push_gvn(packet, header)
        return
    wire = push_gvn(packet, header).to_bytes()
    assert wire == ip_datagram(**{**fields, "protocol": GVN_PROTOCOL, "payload": tagged})
    assert pop_gvn(IpPacket.from_bytes(wire)) == (packet, header)


def test_a_wire_datagram_runs_at_most_9_5_python_calls():
    # Every Python frame the push/pop path enters, as sys.setprofile reports
    # it: parse, classify, pop or push, serialize and, for IPv4, verify.  Each
    # wire operation builds its result in its own frame, and the header a
    # push starts from, GvnHeader(...), is checked in its constructor's.  Half
    # the datagrams are tagged, and a tagged one is parsed twice, by classify
    # and by pop.
    datagrams = []
    for version, (src, dst) in ((4, ("10.0.0.1", "10.0.0.2")), (6, ("fd00::1", "fd00::2"))):
        for pl_data in (b"", bytes(range(64))):
            for payload in (b"", bytes(1000)):
                header = GvnHeader(17, 0x123456789A, 0x80, pl_data)
                datagrams.append((ip_datagram(version, ip_address(src), ip_address(dst), 17, 64,
                                              payload), header))
                datagrams.append((ip_datagram(version, ip_address(src), ip_address(dst),
                                              GVN_PROTOCOL, 64, gvn_header_bytes(header) + payload),
                                  None))
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for data, push in datagrams:
            packet = IpPacket.from_bytes(data)
            if classify(packet).is_gvn:
                out, _header = pop_gvn(packet)
            else:
                out = push_gvn(packet, GvnHeader(packet.protocol, push.code, push.flags,
                                                 push.pl_data))
            wire = out.to_bytes()
            assert out.version == 6 or ipv4_checksum_valid(wire[:20])
    finally:
        sys.setprofile(previous)
    assert calls <= 9.5 * len(datagrams), f"{calls} calls for {len(datagrams)} datagrams"


def test_to_bytes_writes_a_zero_checksum():
    # The worked example with ident 0xB861: the other words sum to 0xFFFF, a
    # nonzero multiple of 0xFFFF, so the checksum is 0x0000, not 0xFFFF.
    packet = make_packet(4, "192.168.0.1", "192.168.0.199", 17, 64, bytes(0x73 - 20),
                         ident=0xB861, flags=2)
    wire = packet.to_bytes()
    assert wire[:20] == bytes.fromhex("45000073b86140004011" "0000" "c0a80001c0a800c7")
    assert wire == ip_datagram(**vars(packet))
    assert ipv4_checksum_valid(wire[:20])
    assert IpPacket.from_bytes(wire) == packet


def test_to_bytes_masks_narrow_fields_and_refuses_wide_ones():
    # flags, frag_offset, traffic_class and flow_label are masked to their
    # bit widths, the checksum with them; tos and ident, unchecked at
    # construction, and a non-integer ttl fail when packed.
    wide = _udp_packet(flags=0xF, frag_offset=0x3FFF).to_bytes()
    assert wide == _udp_packet(flags=7, frag_offset=0x1FFF).to_bytes()
    assert ipv4_checksum_valid(wide[:20])
    for extra in ({"tos": 256}, {"tos": -1}, {"tos": 1.5}, {"ident": 0x10000}, {"ident": -1},
                  {"ttl": 1.5}):
        with pytest.raises(struct.error):
            replaced(_udp_packet(), **extra).to_bytes()
    wide = make_packet(6, "fd00::1", "fd00::2", 17, 64, traffic_class=0x1FF, flow_label=0x1FFFFF)
    assert wide.to_bytes() == make_packet(6, "fd00::1", "fd00::2", 17, 64, traffic_class=0xFF,
                                          flow_label=0xFFFFF).to_bytes()


def test_ipv6_header_layout():
    packet = make_packet(6, "2001:db8::1", "2001:db8::2", 17, 9, b"abc",
                         traffic_class=0xA5, flow_label=0x12345)
    wire = bytes.fromhex("6a512345" "0003" "11" "09"
                         "20010db8000000000000000000000001"
                         "20010db8000000000000000000000002" "616263")
    assert packet.to_bytes() == wire
    assert IpPacket.from_bytes(wire) == packet


def _v4_wire(patch=None):
    """The worked example's header (total length 0x73), with the bytes at
    the offsets in ``patch`` replaced, followed by its payload."""
    header = bytearray.fromhex("45000073000040004011b861c0a80001c0a800c7")
    for offset, value in (patch or {}).items():
        header[offset] = value
    return bytes(header) + bytes(0x73 - 20)


@pytest.mark.parametrize("data, message", [
    (b"", "empty buffer"),
    (b"\x50" + bytes(39), "unknown IP version nibble 5"),
    (_v4_wire()[:19], "short IPv4 header"),
    (_v4_wire({0: 0x46}), "IPv4 options are not supported"),
    (_v4_wire({2: 0, 3: 19}), "IPv4 total length inconsistent with buffer"),
    (_v4_wire()[:0x72], "IPv4 total length inconsistent with buffer"),
    (b"\x60" + bytes(38), "short IPv6 header"),
    (b"\x60\x00\x00\x00\x00\x01" + bytes(34), "IPv6 payload length inconsistent with buffer"),
], ids=["empty", "version-5", "v4-19-bytes", "ihl-6", "v4-total-below-20",
        "v4-total-past-buffer", "v6-39-bytes", "v6-payload-past-buffer"])
def test_from_bytes_refuses_malformed_wire(data, message):
    IpPacket.from_bytes(_v4_wire())  # the unchanged example parses
    with pytest.raises(errors.InvalidPacket, match=message):
        IpPacket.from_bytes(data)


def test_packet_refuses_version_5():
    fields = random_packet(random.Random(5), 4)
    with pytest.raises(errors.InvalidPacket, match="version must be 4 or 6, got 5"):
        IpPacket(**{**fields, "version": 5})


def test_ipv6_payload_limit():
    make_packet(6, "fd00::1", "fd00::2", 17, 64, bytes(65535))
    with pytest.raises(errors.InvalidPacket, match="IPv6 payload length exceeds 65535"):
        make_packet(6, "fd00::1", "fd00::2", 17, 64, bytes(65536))

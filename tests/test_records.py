"""The wire layer's immutable records: IpPacket, GvnHeader and PlAction.

They are tuples of their fields, not dataclasses, and keep a frozen
dataclass's equality, hash, repr, match arguments, immutability, ordering
refusal and copying.
"""

import copy
import pickle

import pytest

from gvn.codec import GvnHeader
from gvn.framework import DropReason, PlAction
from gvn.packet import IpPacket, make_packet

FIELDS = {
    IpPacket: ("version", "src", "dst", "protocol", "ttl", "payload", "tos", "ident", "flags",
               "frag_offset", "traffic_class", "flow_label"),
    GvnHeader: ("next_header", "code", "flags", "pl_data"),
    PlAction: ("kind", "next_hop", "reason", "packet", "header", "note"),
}

RECORDS = [
    make_packet(4, "10.0.0.1", "10.0.0.2", 17, 64, b"data", tos=3, ident=7),
    make_packet(6, "fd00::1", "fd00::2", 6, 9, flow_label=5),
    GvnHeader(17, 42, 0x80, b"abcd"),
    PlAction.forward_by_ip(),
    PlAction.drop(DropReason.POLICY, note="refused"),
    PlAction.rewrite_and_forward(make_packet(4, "10.0.0.1", "10.0.0.2", 254, 64),
                                 GvnHeader(17, 1)),
]


def _values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.fixture(params=RECORDS, ids=lambda r: type(r).__name__)
def record(request):
    return request.param


def test_the_fields_are_the_instance_dict_in_order(record):
    assert type(record).__match_args__ == FIELDS[type(record)]
    assert tuple(vars(record)) == FIELDS[type(record)]


def test_equality_holds_only_within_one_class(record):
    assert record == copy.copy(record)
    assert record != _values(record)
    assert (_values(record) == record) is False
    assert (_values(record) != record) is True
    assert all(record != other for other in RECORDS if type(other) is not type(record))


def test_the_hash_is_the_hash_of_the_fields(record):
    assert hash(record) == hash(_values(record))


def test_the_repr_is_a_dataclass_repr():
    packet = make_packet(4, "10.0.0.1", "10.0.0.2", 17, 64)
    assert repr(packet) == (
        "IpPacket(version=4, src=IPv4Address('10.0.0.1'), dst=IPv4Address('10.0.0.2'), "
        "protocol=17, ttl=64, payload=b'', tos=0, ident=0, flags=0, frag_offset=0, "
        "traffic_class=0, flow_label=0)")
    assert repr(GvnHeader(17, 42)) == "GvnHeader(next_header=17, code=42, flags=0, pl_data=b'')"
    assert repr(PlAction.drop(DropReason.POLICY)) == (
        "PlAction(kind=<ActionKind.DROP: 'Drop'>, next_hop=None, "
        "reason=<DropReason.POLICY: 'Policy'>, packet=None, header=None, note=None)")


@pytest.mark.parametrize("name", ["first field", "other"])
def test_assignment_and_deletion_raise_attribute_error(record, name):
    name = FIELDS[type(record)][0] if name == "first field" else name
    before = dict(vars(record))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert vars(record) == before


def test_a_record_is_the_tuple_of_its_fields_in_order(record):
    assert tuple(record) == _values(record)
    assert len(record) == len(FIELDS[type(record)])
    assert record[0] == getattr(record, FIELDS[type(record)][0])


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_no_record_holds_an_instance_dict(cls):
    # A subclass that forgot ``__slots__ = ()`` would give each record a dict.
    assert cls.__dictoffset__ == 0


@pytest.mark.parametrize("compare", [
    lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b],
    ids=["<", "<=", ">", ">="])
def test_records_refuse_ordering(record, compare):
    # A bare tuple subclass would order fieldwise.
    for a, b in [(record, copy.copy(record)), (record, _values(record)),
                 (_values(record), record)]:
        with pytest.raises(TypeError):
            compare(a, b)


def test_copies_and_pickles_go_through_reduce(record, monkeypatch):
    cls = type(record)
    reduced = []
    reduce = cls.__reduce__

    def counting(self):
        reduced.append(self)
        return reduce(self)

    monkeypatch.setattr(cls, "__reduce__", counting)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        pickle.dumps(record, protocol)
    copy.copy(record)
    copy.deepcopy(record)
    assert reduced.count(record) == pickle.HIGHEST_PROTOCOL + 3
    assert record.__reduce__() == (cls, _values(record))


def test_pickle_copy_and_deepcopy_round_trip(record):
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is type(record)
        assert other == record
        assert hash(other) == hash(record)


def test_the_packet_check_stays_patchable_on_the_class(monkeypatch):
    # The benchmark's tracer wraps the class's own __post_init__ to count
    # packets built through the constructor.
    checked = []
    post_init = IpPacket.__dict__["__post_init__"]

    def counting(packet):
        checked.append(packet)
        post_init(packet)

    monkeypatch.setattr(IpPacket, "__post_init__", counting)
    packet = make_packet(4, "10.0.0.1", "10.0.0.2", 17, 64)
    assert checked == [packet]
    packet.with_ttl(63)
    assert len(checked) == 1

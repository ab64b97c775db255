"""Registry semantics and the receive-side dispatch matrix."""

from ipaddress import ip_address

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gvn import errors
from gvn.codec import FLAG_DROP_ON_UNKNOWN, GVN_PROTOCOL, GvnHeader, classify, push_gvn
from gvn.framework import (
    ActionKind,
    DropReason,
    LocalAddresses,
    PlAction,
    PlRegistry,
    ProcessingLogicBinding,
    legacy_action,
)
from gvn.packet import make_packet

LOCAL = ip_address("10.0.0.1")
OTHER = ip_address("10.0.9.9")
AT_LOCAL = LocalAddresses({LOCAL})


def _binding(code=1, action=None):
    action = action or PlAction.deliver(note="handled")
    return ProcessingLogicBinding(code=code, name="test-pl",
                                  handler=lambda h, p, local: action)


def _packet(dst, protocol=17):
    return make_packet(4, "10.0.5.5", str(dst), protocol, 64, b"data")


def _dispatch(registry, packet):
    """Dispatch with the header parsed the way a node parses it on arrival."""
    return registry.dispatch(classify(packet).header, packet, AT_LOCAL)


def _tagged(dst, code=1, flags=0, protocol=17):
    return push_gvn(_packet(dst, protocol),
                    GvnHeader(next_header=protocol, code=code, flags=flags))


# -- registry ------------------------------------------------------------------

def test_register_and_lookup():
    registry = PlRegistry()
    binding = _binding(code=0x0000000001)
    registry.register(binding)
    assert registry.lookup(1) is binding


def test_register_duplicate_code():
    registry = PlRegistry().register(_binding(code=7))
    with pytest.raises(errors.DuplicateCode):
        registry.register(_binding(code=7))


def test_register_reserved_code():
    with pytest.raises(errors.ReservedCode):
        PlRegistry().register(_binding(code=0))


def test_lookup_unregistered_is_absent():
    registry = PlRegistry().register(_binding(code=5))
    assert registry.lookup(6) is None


def test_lookup_is_pure():
    registry = PlRegistry().register(_binding(code=5))
    assert registry.lookup(5) is registry.lookup(5)


# -- dispatch matrix -------------------------------------------------------------
# Axes: tagged or not, code registered or not, drop flag, destination locality.

def test_untagged_remote_forwards_by_ip():
    action = _dispatch(PlRegistry(), _packet(OTHER))
    assert action.kind is ActionKind.FORWARD_BY_IP


def test_untagged_local_known_transport_delivers():
    action = _dispatch(PlRegistry(), _packet(LOCAL, protocol=17))
    assert action.kind is ActionKind.DELIVER_LOCAL


def test_untagged_local_unknown_transport_drops():
    action = _dispatch(PlRegistry(), _packet(LOCAL, protocol=200))
    assert action.kind is ActionKind.DROP
    assert action.reason is DropReason.UNKNOWN_TRANSPORT


def test_tagged_unknown_code_remote_falls_back_to_forwarding():
    action = _dispatch(PlRegistry(), _tagged(OTHER, code=99))
    assert action.kind is ActionKind.FORWARD_BY_IP


def test_tagged_unknown_code_local_drops_like_legacy():
    action = _dispatch(PlRegistry(), _tagged(LOCAL, code=99))
    assert action.kind is ActionKind.DROP
    assert action.reason is DropReason.UNKNOWN_TRANSPORT


@pytest.mark.parametrize("dst", [LOCAL, OTHER])
def test_tagged_unknown_code_drop_flag_drops(dst):
    action = _dispatch(
        PlRegistry(), _tagged(dst, code=99, flags=FLAG_DROP_ON_UNKNOWN))
    assert action.kind is ActionKind.DROP
    assert action.reason is DropReason.UNKNOWN_CODE


@pytest.mark.parametrize("dst", [LOCAL, OTHER])
def test_tagged_registered_code_runs_handler(dst):
    marker = PlAction.forward_to("somewhere", note="handled")
    registry = PlRegistry().register(_binding(code=4, action=marker))
    assert _dispatch(registry, _tagged(dst, code=4)) is marker


def test_registered_code_wins_over_drop_flag():
    marker = PlAction.forward_by_ip(note="handled")
    registry = PlRegistry().register(_binding(code=4, action=marker))
    action = _dispatch(
        registry, _tagged(OTHER, code=4, flags=FLAG_DROP_ON_UNKNOWN))
    assert action is marker


def test_malformed_gvn_header_treated_at_ip_level():
    short = _packet(OTHER).with_protocol_and_payload(GVN_PROTOCOL, bytes(4))
    action = _dispatch(PlRegistry().register(_binding(code=1)), short)
    assert action.kind is ActionKind.FORWARD_BY_IP
    local = _packet(LOCAL).with_protocol_and_payload(GVN_PROTOCOL, bytes(4))
    action = _dispatch(PlRegistry(), local)
    assert action.kind is ActionKind.DROP
    assert action.reason is DropReason.UNKNOWN_TRANSPORT


def test_dispatch_truth_table_is_total():
    registry = PlRegistry().register(_binding(code=1))
    for code in (1, 2):
        for flags in (0, FLAG_DROP_ON_UNKNOWN):
            for dst in (LOCAL, OTHER):
                action = _dispatch(registry, _tagged(dst, code=code, flags=flags))
                assert isinstance(action, PlAction)
                assert action.kind in ActionKind


# -- legacy equivalence -----------------------------------------------------------

protocols = st.sampled_from([1, 6, 17, 58, 200, GVN_PROTOCOL])
payloads = st.binary(max_size=64)
dsts = st.sampled_from([LOCAL, OTHER])


@given(dsts, protocols, payloads)
def test_empty_registry_equals_legacy_node(dst, protocol, payload):
    packet = make_packet(4, "10.0.5.5", str(dst), protocol, 64, payload)
    via_gvn = _dispatch(PlRegistry(), packet)
    via_legacy = legacy_action(packet, AT_LOCAL)
    header = classify(packet).header
    if header is not None and header.drop_on_unknown:
        # A payload that parses as a header with flag bit 7 set asks a
        # capable node to drop the code it cannot interpret.
        assert via_gvn == PlAction.drop(DropReason.UNKNOWN_CODE,
                                        note=f"code {header.code:#012x} not registered")
    else:
        assert via_gvn == via_legacy


@given(dsts, payloads)
def test_empty_registry_equals_legacy_node_tagged(dst, payload):
    packet = make_packet(4, "10.0.5.5", str(dst), 17, 64, payload)
    tagged = push_gvn(packet, GvnHeader(next_header=17, code=77))
    via_gvn = _dispatch(PlRegistry(), tagged)
    via_legacy = legacy_action(tagged, AT_LOCAL)
    assert via_gvn == via_legacy

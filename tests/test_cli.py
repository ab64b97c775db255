"""Command-line interface: run, decode, checksum, diff-trace."""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvn
from gvn.cli import main
from gvn.errors import SchemaError
from gvn.sim import load_scenario

from .test_schema_corpus import FULL_DOC

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))}


def _container(doc, path):
    """The object or list that holds the value at ``path`` (keys and indexes)."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _loop_doc():
    return {
        "nodes": [
            {"id": "a", "kind": "legacy_router", "addresses": ["10.0.0.1"]},
            {"id": "b", "kind": "legacy_router", "addresses": ["10.0.0.2"]},
        ],
        "links": [["a", "b"]],
        "routes": {
            "a": [{"prefix": "10.9.0.0/16", "next_hop": "b"}],
            "b": [{"prefix": "10.9.0.0/16", "next_hop": "a"}],
        },
        "injections": [
            {"node": "a", "time": 0,
             "packet": {"version": 4, "src": "10.0.0.1", "dst": "10.9.9.9",
                        "protocol": 17, "ttl": 64, "payload_hex": ""}},
        ],
    }


def test_run_three_node_scenario(tmp_path, capsys):
    trace = tmp_path / "out.trace"
    code = main(["run", "--scenario", str(SCENARIOS / "end_host_tagging.json"),
                 "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "injected=1 delivered=1 dropped=0 in-flight=0" in out
    lines = trace.read_text().splitlines()
    assert len(lines) == 14
    assert lines[0].startswith("0\t0\th1\tIngress")


def test_run_report_accounting_matches_trace(tmp_path, capsys):
    for name in sorted(SCENARIOS.glob("*.json")):
        trace = tmp_path / (name.stem + ".trace")
        main(["run", "--scenario", str(name), "--trace", str(trace)])
        out = capsys.readouterr().out
        text = trace.read_text()
        delivered = text.count("\tDeliver\t")
        dropped = text.count("\tDrop(")
        assert f"delivered={delivered}" in out
        assert f"dropped={dropped}" in out


def test_run_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [{"id": "x", "kind": "bogus"}]}))
    code = main(["run", "--scenario", str(bad), "--trace", str(tmp_path / "t")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def _case(name, scenario, path, value):
    """``scenario`` with the value at ``path`` (keys and indexes) set to ``value``."""
    return pytest.param(scenario, path, value, id=name)


# Each value either escaped the loader as a raw exception or loaded with a
# changed meaning before the loader read every field through a typed reader.
MISTYPED = [
    _case("_set_ttl", "end_host_tagging", ("injections", 0, "packet", "ttl"), "x"),
    _case("_set_protocol", "end_host_tagging", ("injections", 0, "packet", "protocol"), None),
    _case("_set_flags", "end_host_tagging", ("injections", 0, "gvn", "flags"), "z"),
    _case("_set_vnid", "end_host_tagging", ("injections", 0, "gvn", "pl", "vnid"), "abc"),
    _case("_set_link_endpoint", "end_host_tagging", ("links", 0, 1), ["r1"]),
    _case("_set_route_next_hop_list", "end_host_tagging", ("routes", "r1", 0, "next_hop"), ["r2"]),
    _case("_set_injection_node_list", "end_host_tagging", ("injections", 0, "node"), ["h1"]),
    _case("_set_injection_encap_chain_list", "nfv_chain", ("injections", 0, "encap_chain"), [7]),
    _case("_set_chain_function_node_list", "nfv_chain",
          ("chains", 0, "functions", 0, "node"), ["f1"]),
    _case("_set_flow_rule_next_hop_list", "icn_routing", ("flow_rules", "o1", 0, "action"),
          {"kind": "forward_to", "next_hop": ["g1"]}),
    _case("_set_icn_next_hop_list", "icn_routing",
          ("registries", "g1", 0, "routes", 0, "next_hop"), ["s1"]),
    _case("_set_flow_rule_next_hop_not_attached", "icn_routing", ("flow_rules", "o1", 0, "action"),
          {"kind": "forward_to", "next_hop": "s1"}),
    _case("_set_icn_next_hop_not_attached", "icn_routing",
          ("registries", "g1", 0, "routes", 0, "next_hop"), "g1"),
    _case("_set_node_addresses_int", "end_host_tagging", ("nodes", 0, "addresses"), 167772161),
    _case("_set_node_address_int", "end_host_tagging", ("nodes", 0, "addresses", 0), 167772161),
    _case("_set_payload_hex_int", "end_host_tagging", ("injections", 0, "packet", "payload_hex"),
          1234),
    _case("_set_edge_match_list", "edge_domain_tagging",
          ("edge_policies", "e1", "ingress", 0, "match"), []),
    _case("_set_edge_action_list", "edge_domain_tagging",
          ("edge_policies", "e1", "ingress", 0, "action"), ["push"]),
    _case("_set_flow_rule_action_list", "icn_routing", ("flow_rules", "o1", 0, "action"), []),
    _case("_set_flow_rule_priority_text", "icn_routing", ("flow_rules", "o1", 0, "priority"), "x"),
    _case("_set_icn_content_int", "icn_routing", ("registries", "g1", 0, "routes", 0, "content"),
          5),
    _case("_set_icn_content_surrogate", "icn_routing",
          ("registries", "g1", 0, "routes", 0, "content"), "\ud800"),
    _case("_set_registry_logic_twice", "vpn_separation", ("registries", "g1"),
          [{"pl": "vpn"}, {"pl": "vpn"}]),
    _case("_set_dst_int", "edge_domain_tagging", ("injections", 0, "packet", "dst"), 3232236042),
    _case("_set_route_prefix_int", "end_host_tagging", ("routes", "r1", 0, "prefix"), 167772416),
    _case("_set_edge_dst_prefix_int", "edge_domain_tagging",
          ("edge_policies", "e1", "ingress", 0, "match", "dst_prefix"), 3232236032),
    _case("_set_edge_protocol_text", "edge_domain_tagging",
          ("edge_policies", "e1", "ingress", 0, "match", "protocol"), "17"),
    _case("_set_max_steps_true", "end_host_tagging", ("max_steps",), True),
    _case("_set_injection_time_true", "end_host_tagging", ("injections", 0, "time"), True),
    _case("_set_chain_spi_true", "end_host_tagging", ("chains",),
          [{"spi": True, "functions": [{"node": "r1", "address": "10.0.10.1"}]}]),
    _case("_set_flow_rule_priority_float", "icn_routing", ("flow_rules", "o1", 0, "priority"),
          1.5),
    _case("_set_vpn_allowed_true", "end_host_tagging", ("registries", "h2", 0, "allowed", 0),
          True),
    _case("_set_name_int", "end_host_tagging", ("name",), 7),
    _case("_set_node_unknown_key", "end_host_tagging", ("nodes", 0, "colour"), "red"),
    _case("_set_packet_unknown_key", "end_host_tagging", ("injections", 0, "packet", "hop_limit"),
          9),
    _case("_set_edge_rule_unknown_key", "edge_domain_tagging",
          ("edge_policies", "e1", "ingress", 0, "comment"), "x"),
    _case("_set_flow_action_unknown_key", "icn_routing", ("flow_rules", "o1", 0, "action"),
          {"kind": "deliver", "next_hop": "g1"}),
    _case("_set_pl_data_hex_beside_pl", "end_host_tagging", ("injections", 0, "gvn", "pl_data_hex"),
          "0000000a00000000"),
    _case("_set_pl_data_hex_3_bytes", "end_host_tagging", ("injections", 0, "gvn"),
          {"code": "vpn", "pl_data_hex": "000000"}),
    _case("_set_link_to_itself", "end_host_tagging", ("links", 1), ["r1", "r1"]),
    _case("_set_link_twice", "end_host_tagging", ("links", 1), ["r1", "h1"]),
    _case("_set_chain_address_of_other_node", "nfv_chain",
          ("chains", 0, "functions", 0, "address"), "10.1.0.2"),
    _case("_set_ingress_action_empty", "edge_domain_tagging",
          ("edge_policies", "e1", "ingress", 0, "action"), {}),
    _case("_set_chain_spi_twice", "nfv_chain", ("chains",),
          [{"spi": 7, "functions": [{"node": "f1", "address": "10.1.0.1"}]}] * 2),
    _case("_set_edge_policy_on_router", "edge_domain_tagging", ("edge_policies", "g1"), {}),
    _case("_set_flow_rules_on_legacy_node", "end_host_tagging", ("flow_rules",), {"r1": []}),
    _case("_set_gvn_on_protocol_254", "end_host_tagging", ("injections", 0, "packet", "protocol"),
          254),
]


@pytest.mark.parametrize("scenario, path, value", MISTYPED)
def test_run_mistyped_field_exits_2(scenario, path, value, tmp_path, capsys):
    doc = copy.deepcopy(BUNDLED[scenario])
    _container(doc, path)[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_scenario(doc)
    assert main(["run", "--scenario", str(bad), "--trace", str(tmp_path / "t")]) == 2
    assert "error:" in capsys.readouterr().err


# One bad value in the first injection of end_host_tagging: (path within the
# injection, value, the exact message).  Listed in the order the loader reads them.
BAD_INJECTION_VALUES = [
    (("node",), "ghost", "injections[0].node: unknown node 'ghost'"),
    (("time",), -1, "injections[0].time: must be an integer in [0, inf], got -1"),
    (("packet",), [], "injections[0].packet: must be an object, got list"),
    (("packet", "version"), "x",
     "injections[0].packet.version: must be an integer in [0, 6], got 'x'"),
    (("packet", "protocol"), "x",
     "injections[0].packet.protocol: must be an integer in [0, 255], got 'x'"),
    (("packet", "ttl"), 256, "injections[0].packet.ttl: must be an integer in [0, 255], got 256"),
    (("packet", "tos"), True, "injections[0].packet.tos: must be an integer in [0, 255], got True"),
    (("packet", "ident"), 65536,
     "injections[0].packet.ident: must be an integer in [0, 65535], got 65536"),
    (("packet", "flags"), 8, "injections[0].packet.flags: must be an integer in [0, 7], got 8"),
    (("packet", "frag_offset"), -1,
     "injections[0].packet.frag_offset: must be an integer in [0, 8191], got -1"),
    (("packet", "traffic_class"), 1.0,
     "injections[0].packet.traffic_class: must be an integer in [0, 255], got 1.0"),
    (("packet", "flow_label"), None,
     "injections[0].packet.flow_label: must be an integer in [0, 1048575], got None"),
    (("packet", "src"), 7, "injections[0].packet.src: address must be a string, got 7"),
    (("packet", "dst"), "1.2.3",
     "injections[0].packet.dst: bad address '1.2.3': Expected 4 octets in '1.2.3'"),
    (("packet", "payload_hex"), "zz",
     "injections[0].packet.payload_hex: bad hex 'zz': "
     "non-hexadecimal number found in fromhex() arg at position 0"),
    (("gvn", "flags"), "z", "injections[0].gvn.flags: must be an integer in [0, 255], got 'z'"),
]


# Values their readers accept that make a packet the packet's checks refuse.
BAD_INJECTED_PACKETS = [
    (("packet", "version"), 5, "injections[0]: version must be 4 or 6, got 5"),
    (("packet", "dst"), "fd00::1", "injections[0]: address family does not match packet version"),
]


@pytest.mark.parametrize("path, value, message", BAD_INJECTION_VALUES + BAD_INJECTED_PACKETS,
                         ids=[f"{'.'.join(path)}={value!r}" for path, value, _message
                              in BAD_INJECTION_VALUES + BAD_INJECTED_PACKETS])
def test_a_bad_injection_value_is_named_by_its_path(path, value, message):
    doc = copy.deepcopy(BUNDLED["end_host_tagging"])
    _container(doc["injections"][0], path)[path[-1]] = value
    with pytest.raises(SchemaError) as raised:
        load_scenario(doc)
    assert str(raised.value) == message


def test_an_injection_with_many_bad_values_reports_them_in_read_order():
    doc = copy.deepcopy(BUNDLED["end_host_tagging"])
    injection = doc["injections"][0]
    cases = [case for case in BAD_INJECTION_VALUES if case[0] != ("packet",)]
    good = [copy.deepcopy(_container(injection, path)) for path, _value, _message in cases]
    for path, value, _message in cases:
        _container(injection, path)[path[-1]] = value
    for (path, _value, message), container in zip(cases, good):
        with pytest.raises(SchemaError) as raised:
            load_scenario(doc)
        assert str(raised.value) == message
        # Mend this value, leaving the later bad values in place.
        if path[-1] in container:
            _container(injection, path)[path[-1]] = container[path[-1]]
        else:
            del _container(injection, path)[path[-1]]
    load_scenario(doc)


@pytest.mark.parametrize("text", [" 0x2a", "4_2", "+42", "0x2A\n", "\u0664\u0662"])
def test_code_text_is_ascii_letters_and_digits(text):
    assert int(text, 0) == 42
    doc = copy.deepcopy(BUNDLED["end_host_tagging"])
    doc["injections"][0]["gvn"]["code"] = text
    with pytest.raises(SchemaError) as raised:
        load_scenario(doc)
    assert str(raised.value) == (f"injections[0].gvn.code: bad code {text!r}: "
                                 "only ASCII letters and digits are allowed")


@pytest.mark.parametrize("path, where", [
    (("injections", 0, "packet", "payload_hex"), "injections[0].packet.payload_hex"),
    (("injections", 1, "gvn", "pl_data_hex"), "injections[1].gvn.pl_data_hex"),
    (("edge_policies", "e1", "ingress", 0, "action", "push", "pl_data_hex"),
     "edge_policies['e1'].ingress[0].action.push.pl_data_hex"),
    (("flow_rules", "g1", 0, "match", "pl_prefix", "hex"),
     "flow_rules['g1'][0].match.pl_prefix.hex"),
])
@pytest.mark.parametrize("text", ["ca fe", " cafe", "ca\tfe", "cafe\n"])
def test_hex_text_is_hex_digits_only(path, where, text):
    assert bytes.fromhex(text) == b"\xca\xfe"
    doc = copy.deepcopy(FULL_DOC)
    _container(doc, path)[path[-1]] = text
    with pytest.raises(SchemaError) as raised:
        load_scenario(doc)
    assert str(raised.value) == f"{where}: bad hex {text!r}: only hex digits are allowed"


def _paths(value, path=()):
    """The path of every value in a JSON tree, the root's included."""
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _leaves(value):
    """Every key and scalar in a JSON tree: node ids, prefixes, codes and the like."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield key
            yield from _leaves(child)
    elif isinstance(value, list):
        for child in value:
            yield from _leaves(child)
    else:
        yield value


LEAVES = [json.loads(text) for text in
          sorted({json.dumps(leaf) for doc in BUNDLED.values() for leaf in _leaves(doc)})]
KEYS = st.text() | st.sampled_from([leaf for leaf in LEAVES if isinstance(leaf, str)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.sampled_from(LEAVES),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=6)


@st.composite
def mutated_documents(draw):
    """A bundled scenario with one value replaced by any JSON value, or one key deleted."""
    doc = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(JSON_VALUES)
    parent = _container(doc, path)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_any_document_loads_or_raises_schema_error(doc):
    try:
        load_scenario(doc)
    except SchemaError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--trace", str(Path(tmp) / "t")]) in (0, 1, 2)


def test_importing_gvn_and_its_simulator_imports_no_socket_module():
    # `import socket` costs milliseconds (it turns its AF_* constants into an
    # IntEnum), and every `gvn` command would pay it: the loader reads
    # address text through the C module `_socket`, and `import gvn` imports
    # neither.
    src = str(Path(gvn.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import gvn; "
            "print('socket' in sys.modules, '_socket' in sys.modules); "
            "import gvn.sim; print('socket' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False"]


def test_importing_gvn_imports_no_dataclasses_or_inspect():
    # A GVN-capable application imports only the wire layer, whose records
    # are plain classes: `dataclasses` imports `inspect`, and the two cost
    # more than the rest of `import gvn`.  The import still binds every
    # exported name, each of its modules loaded.
    src = str(Path(gvn.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import gvn; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
            "print(all(name in vars(gvn) for name in gvn.__all__), "
            "all(f'gvn.{name}' in sys.modules for name in ('codec', 'framework', 'packet')))")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["[]", "True True", ""]


def test_run_unreadable_scenario_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "missing.json"),
                 "--trace", str(tmp_path / "t")])
    assert code == 2


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    return ["--scenario", str(path)]


def _directory(tmp_path):
    return ["--scenario", str(tmp_path)]


def _zero_max_steps(tmp_path):
    return ["--scenario", str(SCENARIOS / "nfv_chain.json"), "--max-steps", "0"]


def _max_steps_in_other_digits(tmp_path):
    # str.isdigit and int take Arabic-Indic digits: this reads as 12.
    return ["--scenario", str(SCENARIOS / "nfv_chain.json"), "--max-steps", "\u0661\u0662"]


def _nested_too_deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    return ["--scenario", str(path)]


@pytest.mark.parametrize("arguments", [_not_utf8, _directory, _zero_max_steps,
                                       _max_steps_in_other_digits, _nested_too_deep])
def test_run_input_error_exits_2(arguments, tmp_path, capsys):
    argv = ["run", "--trace", str(tmp_path / "t")] + arguments(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a bad option value
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_step_limit_writes_partial_trace(tmp_path, capsys):
    doc = tmp_path / "loop.json"
    doc.write_text(json.dumps(_loop_doc()))
    trace = tmp_path / "loop.trace"
    code = main(["run", "--scenario", str(doc), "--trace", str(trace),
                 "--max-steps", "4"])
    assert code == 1
    assert "step limit" in capsys.readouterr().err
    assert len(trace.read_text().splitlines()) > 0


def test_run_json_format(tmp_path):
    trace = tmp_path / "t.json"
    main(["run", "--scenario", str(SCENARIOS / "vpn_separation.json"),
          "--trace", str(trace), "--format", "json"])
    records = json.loads(trace.read_text())
    assert records[0]["event"] == "Ingress"
    assert any(r["event"].startswith("Drop(VpnViolation)") for r in records)


def test_decode_minimal_header(capsys):
    assert main(["decode", "02110000000000 2a".replace(" ", "")]) == 0
    out = capsys.readouterr().out
    assert "length=8 next=17 flags=0x00 code=0x000000002a" in out


def test_decode_reserved_length(capsys):
    assert main(["decode", "ff" + "00" * 7]) == 0
    out = capsys.readouterr().out
    assert "ReservedLength" in out


def test_decode_odd_hex_is_usage_error(capsys):
    assert main(["decode", "abc"]) == 2
    assert "bad hex" in capsys.readouterr().err


def test_decode_full_packet_with_vpn_payload(capsys):
    from gvn.codec import GvnHeader, push_gvn
    from gvn.logics import VPN_CODE, VpnData
    from gvn.packet import make_packet
    packet = make_packet(4, "10.0.0.1", "10.0.1.1", 17, 64, b"hi")
    tagged = push_gvn(packet, GvnHeader(next_header=17, code=VPN_CODE,
                                        pl_data=VpnData(10).to_bytes()))
    assert main(["decode", tagged.to_bytes().hex()]) == 0
    out = capsys.readouterr().out
    assert "IPv4 src=10.0.0.1 dst=10.0.1.1 proto=254" in out
    assert "VPN vnid=10" in out


# An IPv4 packet from 10.0.0.1 to 10.1.0.1 that carries an NFV chain header
# (spi 7, si 1, original destination 10.0.2.1) and two payload bytes.
NFV_PACKET_HEX = ("4500002a0000000040fe65d40a0000010a010001"
                  "051100000000000101000007010400000a000201cafe")


@pytest.mark.parametrize("hex_text, lines", [
    (NFV_PACKET_HEX, [
        "IPv4 src=10.0.0.1 dst=10.1.0.1 proto=254 ttl=64 len=42",
        "GVN length=20 next=17 flags=0x00 code=0x0000000001",
        "NFV chain spi=7 si=1 original_dst=10.0.2.1",
        "payload 2 bytes after the header"]),
    ("031100000000000100000000", [
        "GVN length=12 next=17 flags=0x00 code=0x0000000001",
        "NFV chain data malformed: chain data needs >= 8 octets, got 4"]),
    ("450000260000000040fe63d90a0000010a0002010411000000000002329f626159a058b1cafe", [
        "IPv4 src=10.0.0.1 dst=10.0.2.1 proto=254 ttl=64 len=38",
        "GVN length=16 next=17 flags=0x00 code=0x0000000002",
        "ICN tag=329f626159a058b1",
        "payload 2 bytes after the header"]),
    ("031100000000000300000000", [
        "GVN length=12 next=17 flags=0x00 code=0x0000000003",
        "VPN data malformed: vpn data must be 8 octets, got 4"]),
    ("6000000000021140fd000000000000000000000000000001fd0000000000000000000000000000026162", [
        "IPv6 src=fd00::1 dst=fd00::2 proto=17 ttl=64 len=42",
        "payload 2 bytes"]),
], ids=["nfv", "nfv-malformed", "icn", "vpn-malformed", "ipv6-untagged"])
def test_decode_describes_each_layer(hex_text, lines, capsys):
    assert main(["decode", hex_text]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_checksum_worked_example(capsys):
    assert main(["checksum", "450000730000400040110000c0a80001c0a800c7"]) == 0
    assert capsys.readouterr().out.strip() == "0xb861"


def test_checksum_short_input_is_usage_error(capsys):
    assert main(["checksum", "4500"]) == 2


def test_diff_trace_identical(tmp_path, capsys):
    a = tmp_path / "a"
    a.write_text("one\ntwo\n")
    assert main(["diff-trace", str(a), str(a)]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_trace_reports_first_divergence(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.write_text("l1\nl2\nl3\nl4\nl5\nl6\n")
    b.write_text("l1\nl2\nl3\nl4\nXX\nl6\n")
    assert main(["diff-trace", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "line 5" in out
    assert "- l5" in out and "+ XX" in out


def test_diff_trace_empty_vs_nonempty(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.write_text("")
    b.write_text("something\n")
    assert main(["diff-trace", str(a), str(b)]) == 1
    assert "line 1" in capsys.readouterr().out


@pytest.mark.parametrize("a_text, b_text, expected", [
    ("l1\nl2", "l1\nl2\nl3", "traces diverge at line 3:\n+ l3\n"),
    ("l1\nl2\nl3", "l1\nl2", "traces diverge at line 3:\n- l3\n"),
    ("l1\n", "l1\nl2\n", "traces diverge at line 2:\n- \n+ l2\n"),
])
def test_diff_trace_when_one_file_is_a_line_prefix_of_the_other(tmp_path, capsys,
                                                                a_text, b_text, expected):
    # Split on newlines, "l1\nl2" is a prefix of "l1\nl2\nl3": only the
    # longer file has line 3.  With a final newline, both files have a
    # line 2, and one of them is empty.
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.write_text(a_text)
    b.write_text(b_text)
    assert main(["diff-trace", str(a), str(b)]) == 1
    assert capsys.readouterr().out == expected


def test_diff_trace_missing_file(tmp_path, capsys):
    a = tmp_path / "a"
    a.write_text("x\n")
    assert main(["diff-trace", str(a), str(tmp_path / "nope")]) == 2

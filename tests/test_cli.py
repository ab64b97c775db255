"""Command-line interface: run, decode, checksum, diff-trace."""

import json
from pathlib import Path

import pytest

from gvn.cli import main
from gvn.errors import SchemaError
from gvn.sim import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


def _set_ttl(doc):
    doc["injections"][0]["packet"]["ttl"] = "x"


def _set_protocol(doc):
    doc["injections"][0]["packet"]["protocol"] = None


def _set_flags(doc):
    doc["injections"][0]["gvn"]["flags"] = "z"


def _set_vnid(doc):
    doc["injections"][0]["gvn"]["pl"]["vnid"] = "abc"


def _set_link_endpoint(doc):
    doc["links"][0][1] = ["r1"]


@pytest.mark.parametrize("mutate", [_set_ttl, _set_protocol, _set_flags, _set_vnid,
                                    _set_link_endpoint])
def test_run_mistyped_field_exits_2(mutate, tmp_path, capsys):
    doc = json.loads((SCENARIOS / "end_host_tagging.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_scenario(doc)
    assert main(["run", "--scenario", str(bad), "--trace", str(tmp_path / "t")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_unreadable_scenario_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "missing.json"),
                 "--trace", str(tmp_path / "t")])
    assert code == 2


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


def test_diff_trace_missing_file(tmp_path, capsys):
    a = tmp_path / "a"
    a.write_text("x\n")
    assert main(["diff-trace", str(a), str(tmp_path / "nope")]) == 2

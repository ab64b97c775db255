"""Command-line front end.

Subcommands: ``run`` a scenario and write its trace, ``decode`` a hex
packet or bare header, ``checksum`` an IPv4 header, ``diff-trace`` two
trace files.  Exit status: 0 success, 1 runtime condition (step limit),
2 usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path

from .codec import GVN_PROTOCOL, parse_gvn
from .errors import GvnError, MalformedHeader, SchemaError
from .logics import ICN_CODE, NFV_CODE, VPN_CODE, NfvChainData, VpnData
from .logics.icn import TAG_LEN
from .packet import IpPacket, ipv4_header_checksum
from .sim import format_json, format_text, load_scenario, run

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _read_hex(text: str) -> bytes:
    try:
        return bytes.fromhex(text.replace(":", "").replace(" ", ""))
    except ValueError as exc:
        raise GvnError(f"bad hex string: {exc}")


def _describe_header(data: bytes) -> None:
    try:
        header = parse_gvn(data)
    except MalformedHeader as exc:
        print(f"GVN header malformed: {type(exc).__name__}: {exc}")
        return
    print(f"GVN length={header.total_length} next={header.next_header} "
          f"flags={header.flags:#04x} code={header.code:#012x}")
    if header.code == NFV_CODE and header.pl_data:
        try:
            data_ = NfvChainData.from_bytes(header.pl_data)
            print(f"NFV chain spi={data_.spi} si={data_.si} "
                  f"original_dst={data_.original_dst}")
        except GvnError as exc:
            print(f"NFV chain data malformed: {exc}")
    elif header.code == ICN_CODE and header.pl_data:
        print(f"ICN tag={header.pl_data[:TAG_LEN].hex()}")
    elif header.code == VPN_CODE and header.pl_data:
        try:
            print(f"VPN vnid={VpnData.from_bytes(header.pl_data).vnid}")
        except GvnError as exc:
            print(f"VPN data malformed: {exc}")
    trailing = len(data) - header.total_length
    if trailing:
        print(f"payload {trailing} bytes after the header")


def _looks_like_ip(data: bytes) -> bool:
    if len(data) >= 20 and data[0] >> 4 == 4:
        total = int.from_bytes(data[2:4], "big")
        return 20 <= total <= len(data)
    if len(data) >= 40 and data[0] >> 4 == 6:
        plen = int.from_bytes(data[4:6], "big")
        return 40 + plen <= len(data)
    return False


def cmd_decode(args) -> int:
    data = _read_hex(args.hex)
    if _looks_like_ip(data):
        packet = IpPacket.from_bytes(data)
        kind = "IPv4" if packet.version == 4 else "IPv6"
        print(f"{kind} src={packet.src} dst={packet.dst} proto={packet.protocol} "
              f"ttl={packet.ttl} len={packet.total_length}")
        if packet.protocol == GVN_PROTOCOL:
            _describe_header(packet.payload)
        else:
            print(f"payload {len(packet.payload)} bytes")
    else:
        _describe_header(data)
    return EXIT_OK


def cmd_checksum(args) -> int:
    value = ipv4_header_checksum(_read_hex(args.hex))
    print(f"{value:#06x}")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        doc = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise SchemaError(f"{args.scenario}: not valid JSON: {exc}")
    scenario = load_scenario(doc)
    max_steps = args.max_steps if args.max_steps is not None else scenario.max_steps
    result = run(scenario.topology, scenario.injections, max_steps)
    text = (format_json(result.records) if args.format == "json"
            else format_text(result.records))
    Path(args.trace).write_text(text, encoding="utf-8")
    drops = ", ".join(f"{reason}={count}"
                      for reason, count in sorted(result.dropped.items())) or "none"
    print(f"scenario: {args.scenario}")
    print(f"steps executed: {result.steps}")
    print(f"packets injected={result.injected} delivered={result.delivered} "
          f"dropped={sum(result.dropped.values())} in-flight={result.in_flight}")
    print(f"drops by reason: {drops}")
    print(f"trace written: {args.trace} ({len(result.records)} records)")
    if result.step_limit_exceeded:
        print(f"step limit of {max_steps} exceeded; trace is partial", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_diff_trace(args) -> int:
    a_lines = Path(args.a).read_bytes().split(b"\n")
    b_lines = Path(args.b).read_bytes().split(b"\n")
    for number, pair in enumerate(zip_longest(a_lines, b_lines), start=1):
        if pair[0] != pair[1]:
            print(f"traces diverge at line {number}:")
            for marker, line in zip("-+", pair):
                if line is not None:  # the shorter file has no such line
                    print(f"{marker} {line.decode(errors='replace')}")
            return EXIT_RUNTIME
    print("traces are identical")
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvn", description="Layer-3.5 virtual networking tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write its trace")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--trace", required=True, help="trace output file")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--max-steps", type=_positive_int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_decode = sub.add_parser("decode", help="decode a hex IP packet or bare GVN header")
    p_decode.add_argument("hex")
    p_decode.set_defaults(func=cmd_decode)

    p_cksum = sub.add_parser("checksum", help="IPv4 header checksum of hex bytes")
    p_cksum.add_argument("hex")
    p_cksum.set_defaults(func=cmd_checksum)

    p_diff = sub.add_parser("diff-trace", help="compare two trace files byte by byte")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(func=cmd_diff_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, GvnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Measurement loops, fate checks and metric computation.

The host the benchmark runs on is shared, and its speed swings by up to 2x
within a second and for minutes at a time.  So every timing is the
minimum of repeats, as ``timeit`` takes it: the work is cut into short units
(one set-up, one batch of CHUNK injections, one single-packet run, one pass
over the wire stream), each unit is repeated in passes spread over the whole
measuring time, and each unit counts with its fastest repetition.  Noise
only ever adds time, so the fastest repetition estimates the code's own
cost.  As in ``timeit``, the garbage collector is paused while a round of
units runs and made to collect between rounds, so a collection's pause
(which grows with the harness's own live objects) lands in no unit.  The
end-to-end timings are then scaled by the host's speed during the run
(``HostSpeed``), since a whole run can fall inside a slow spell.

The harness calls ``gvn`` through module attributes (``sim.run``,
``codec.classify``), so the same loop runs traced once ``tracing.Tracer``
has patched those attributes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from ipaddress import IPv4Network, IPv6Network, ip_address, ip_network
from time import perf_counter
from typing import Dict, List, Optional

import gvn.codec as codec
import gvn.packet as packet_mod
import gvn.sim as sim
from gvn.errors import OversizePacket
from gvn.sim.topology import RouteEntry, RoutingTable

import workloads
from tracing import LAYERS, Tracer

SETUP_REPS = 11             # gvn imports timed per wire run
MIN_REPS = 3                # passes per run, at least
CALIBRATION_S = 0.008       # fastest calibration unit on the quiet reference host
CALIBRATION_SHARE = 0.1     # share of the measuring time the calibration takes
CHUNK = 32                  # injections per timed simulator batch
PER_CALL = (
    "codec.parse_gvn", "codec.classify", "codec.push_gvn", "codec.pop_gvn",
    "packet.with_ttl", "packet.with_dst", "packet.with_protocol_and_payload",
    "packet.to_bytes", "packet.from_bytes", "packet.ipv4_header_checksum",
    "logics.nfv_step", "logics.vpn_check", "logics.icn_route",
    "sim.route_lookup", "sim.flow_match", "sim.edge_ingress", "sim.trace.summarize",
)
PER_HOP = ("codec.parse_gvn", "codec.classify", "framework.dispatch")
PROBE_SIZES = (100, 1000, 10000)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, on every workload, with
    its unit."""
    units = {f"{n}.us": "us" for n in PER_CALL}
    units.update({f"{n}.calls_per_hop": "count" for n in PER_HOP})
    units.update({
        "framework.dispatch.us": "us",
        "packet.objects_per_hop": "count",
        "sim.route_lookup.entries_per_call": "count",
        "sim.trace.records_per_packet": "count",
        "sim.trace.format_text_s": "s",
        "sim.topology.build_topology_s": "s",
        "sim.topology.parse_injections_s": "s",
        "harness.tracing_overhead": "ratio",
    })
    units.update({f"sim.route_lookup.us_at_{n}": "us" for n in PROBE_SIZES})
    units.update({f"{layer}.self_share": "fraction" for layer in LAYERS})
    return units


@dataclass
class Report:
    metrics: Dict[str, tuple] = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    mismatches: Counter = field(default_factory=Counter)

    def add(self, name: str, value: float, unit: str) -> None:
        # A run that aborted before timing anything leaves no finite value.
        self.metrics[name] = (value if math.isfinite(value) else 0.0, unit)

    def set_per_layer(self, values: Dict[str, float]) -> None:
        for name, unit in per_layer_units().items():
            self.add(name, values[name], unit)

    def count(self, attempted: int, mismatches: Counter) -> None:
        self.attempted += attempted
        self.failed += sum(mismatches.values())
        self.mismatches.update(mismatches)


def nearest_rank(sorted_values: list, q: float) -> float:
    index = max(0, -int(-q * len(sorted_values) // 1) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank ``q`` quantile of ``n`` samples."""
    return n - (-int(-q * n // 1))


@contextmanager
def gc_paused():
    """Collect now, then keep the collector off for the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class HostSpeed:
    """How fast the shared host runs Python during a run.

    The calibration unit is fixed work from the standard library that
    shares no code with ``gvn``: six full longest-prefix scans, with
    ``ipaddress``, of 5,000 mixed-length prefixes.  ``keep_up`` times it
    until it has taken CALIBRATION_SHARE of the time so far; called between
    the measured units, it samples the host all through the run.  Its
    fastest time against CALIBRATION_S gives ``factor``, by which every
    end-to-end timing is scaled, so that a run made while the host is slow
    reads as it would on the quiet reference host.
    """

    def __init__(self) -> None:
        rng = random.Random("calibration")
        self.networks = [ip_network(p) for p in workloads.filler_routes(rng, 5000)]
        self.addresses = [ip_address((10 << 24) | rng.getrandbits(24)) for _ in range(6)]
        self.best = float("inf")
        self.spent = 0.0
        self.samples = 0
        self.start = perf_counter()

    def keep_up(self) -> None:
        while self.spent <= CALIBRATION_SHARE * (perf_counter() - self.start):
            begin = perf_counter()
            matches = sum(1 for a in self.addresses for n in self.networks
                          if n.version == a.version and a in n)
            took = perf_counter() - begin
            if matches:  # filler never covers 10.0.0.0/8
                raise AssertionError("calibration scan matched a prefix")
            self.best = min(self.best, took)
            self.spent += took
            self.samples += 1

    @property
    def factor(self) -> float:
        return CALIBRATION_S / self.best


def add_timings(report: Report, host: HostSpeed, rate: float, setup_s: float,
                p50_s: float, p99_s: float) -> None:
    """The four end-to-end timings, scaled by the host's speed, and a note
    with the host's speed and the unscaled values."""
    f = host.factor
    report.add("packets_per_s", rate / f, "1/s")
    report.add("setup_s", setup_s * f, "s")
    report.add("packet_us_p50", 1e6 * p50_s * f, "us")
    report.add("packet_us_p99", 1e6 * p99_s * f, "us")
    report.notes.append(
        f"host factor {f:.4f}: calibration unit {1e3 * host.best:.4f} ms at its fastest "
        f"of {host.samples}, {1e3 * CALIBRATION_S:g} ms on the reference host; unscaled "
        f"packets_per_s {rate:.6g} setup_s {setup_s:.6g} packet_us_p50 {1e6 * p50_s:.6g} "
        f"packet_us_p99 {1e6 * p99_s:.6g}")


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """True while fewer than MIN_REPS rounds have run, or while one more
    round, as long as the average one so far, ends within ``seconds`` of
    ``start``."""
    if rounds < MIN_REPS:
        return True
    now = perf_counter()
    return now + (now - start) / rounds <= start + seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- fate checks ----------------------------------------------------------------

def packet_fields(p) -> tuple:
    return (p.version, str(p.src), str(p.dst), p.protocol, p.ttl, bytes(p.payload),
            p.tos, p.ident, p.flags, p.frag_offset, p.traffic_class, p.flow_label)


def check_fates(result, predictions: Dict[str, workloads.Prediction]) -> Counter:
    """Mismatches per traffic class between ``result`` and the predictions.

    A packet passes when the trace holds exactly one final record for its
    source address, at the predicted node with the predicted event, and a
    delivered packet equals the predicted datagram field by field.  A packet
    left in flight (step limit) has no final record and fails.
    """
    finals: Dict[str, list] = {}
    for record in result.records:
        if record.event == "Deliver" or record.event.startswith("Drop("):
            finals.setdefault(record.src, []).append(record)
    delivered = {str(p.src): p for _node, p in result.delivered_packets}
    mismatches: Counter = Counter()
    for src, prediction in predictions.items():
        records = finals.get(src, ())
        kind, node, detail = prediction.fate
        ok = len(records) == 1 and records[0].node == node
        if ok and kind == "Deliver":
            ok = (records[0].event == "Deliver" and src in delivered
                  and packet_fields(delivered[src]) == detail.fields())
        elif ok:
            ok = records[0].event == f"Drop({detail})"
        if not ok:
            mismatches[prediction.klass] += 1
    return mismatches


# -- simulator workloads ------------------------------------------------------------

def _load(text: str):
    return sim.load_scenario(json.loads(text))


def _batch(scenario, injections, predictions, report: Report):
    """Run ``injections`` as one batch and render its trace, as ``gvn run``
    does after loading, timing both; check every packet's fate.  Returns
    (result, trace digest, seconds), or None when the run aborts."""
    try:
        start = perf_counter()
        result = sim.run(scenario.topology, injections, scenario.max_steps)
        text = sim.format_text(result.records)
        elapsed = perf_counter() - start
    except Exception:  # an aborted run resolves none of its packets
        report.errors.append(traceback.format_exc())
        report.count(len(predictions), Counter(aborted=len(predictions)))
        return None
    report.count(len(predictions), check_fates(result, predictions))
    if result.step_limit_exceeded:
        report.errors.append(f"step limit exceeded with {result.in_flight} in flight")
    return result, hashlib.sha256(text.encode()).hexdigest(), elapsed


def _full_batch(work, scenario, report: Report):
    """All injections in one run, so the whole trace is in memory at once
    (this sets the peak RSS); returns (result, trace digest) or None."""
    gc.collect()
    done = _batch(scenario, scenario.injections, work.predictions, report)
    return None if done is None else done[:2]


class Batches:
    """Batches of CHUNK injections, run pass after pass, keeping each
    batch's fastest time and its trace digests."""

    def __init__(self, work, scenario) -> None:
        injections = scenario.injections
        self.scenario = scenario
        self.chunks = [injections[i:i + CHUNK] for i in range(0, len(injections), CHUNK)]
        self.expected = [{str(j.packet.src): work.predictions[str(j.packet.src)]
                          for j in chunk} for chunk in self.chunks]
        self.best = [float("inf")] * len(self.chunks)
        self.digests = [set() for _ in self.chunks]
        self.resolved = [0] * len(self.chunks)  # packets brought to a fate per batch
        self.passes = 0
        self.total = 0.0       # seconds of every batch run
        self.arrivals = 0      # node arrivals over every batch run
        self.records = 0
        self.injected = 0

    def run_pass(self, report: Report, tracer: Optional[Tracer] = None,
                 host: Optional[HostSpeed] = None) -> bool:
        """One pass over all batches, sampling ``host`` between them; False
        when a run aborted."""
        for k, chunk in enumerate(self.chunks):
            if tracer is None:
                done = _batch(self.scenario, chunk, self.expected[k], report)
            else:
                with tracer:
                    done = _batch(self.scenario, chunk, self.expected[k], report)
                tracer.fold()
            if done is None:
                return False
            result, digest, elapsed = done
            self.best[k] = min(self.best[k], elapsed)
            self.digests[k].add(digest)
            self.total += elapsed
            self.resolved[k] = result.delivered + sum(result.dropped.values())
            self.arrivals += sum(1 for r in result.records if r.event == "Ingress")
            self.records += len(result.records)
            self.injected += len(chunk)
            if host is not None:
                host.keep_up()
        self.passes += 1
        if any(len(d) > 1 for d in self.digests):
            report.errors.append("a batch's trace digest changed between passes")
            return False
        return True

    def rate(self) -> float:
        """Packets brought to a fate per second, each batch at its fastest."""
        return sum(self.resolved) / sum(self.best)


def _closed_loop_pass(work, scenario, best: list, report: Report, host: HostSpeed) -> bool:
    """One caller simulating one packet at a time: each injection in turn
    goes through its own ``run``; ``best`` keeps each one's fastest time;
    ``host`` is sampled between packets.  False when a run aborted."""
    for k, injection in enumerate(scenario.injections):
        src = str(injection.packet.src)
        try:
            start = perf_counter()
            result = sim.run(scenario.topology, [injection], scenario.max_steps)
            best[k] = min(best[k], perf_counter() - start)
        except Exception:  # an aborted run resolves none of its packets
            report.errors.append(traceback.format_exc())
            report.count(1, Counter(aborted=1))
            return False
        report.count(1, check_fates(result, {src: work.predictions[src]}))
        host.keep_up()
    return True


def simulator_end_to_end(work, seconds: float) -> Report:
    """Rounds of one set-up, one pass over the batches and one closed-loop
    pass, for ``seconds`` (at least MIN_REPS rounds)."""
    report = Report()
    text = json.dumps(work.doc)
    scenario = _load(text)
    full = _full_batch(work, scenario, report)
    if full is not None:
        report.notes.append(f"trace_sha256 {full[1]}")
    del full
    batches = Batches(work, scenario)
    latencies = [float("inf")] * len(scenario.injections)
    setups = []
    host = HostSpeed()
    began = perf_counter()
    while another_round(began, batches.passes, seconds):
        with gc_paused():
            start = perf_counter()
            scenario = _load(text)
            setups.append(perf_counter() - start)
            if not (batches.run_pass(report, host=host)
                    and _closed_loop_pass(work, scenario, latencies, report, host)):
                break
    latencies.sort()
    add_timings(report, host, batches.rate(), min(setups),
                statistics.median(latencies), nearest_rank(latencies, 0.99))
    report.add("peak_rss_mb", peak_rss_mb(), "MB")
    report.notes.append(
        f"{batches.passes} rounds: set-up, the batches of {CHUNK} of "
        f"{len(work.predictions)} packets, closed loop; latency quantiles over {len(latencies)} per-packet minima "
        f"({beyond(len(latencies), 0.99)} beyond p99)")
    return report


def simulator_traced(work, seconds: float, seed: int) -> Report:
    """Per-layer metrics from traced passes over the batches, alternating
    with untraced passes for ``harness.tracing_overhead``."""
    report = Report()
    text = json.dumps(work.doc)
    setup_tracer = Tracer()
    build_s, inject_s = [], []
    for _ in range(MIN_REPS):
        with setup_tracer:
            scenario = _load(text)
        build_s.append(_span_seconds(setup_tracer, "sim.topology.build_topology"))
        inject_s.append(_span_seconds(setup_tracer, "sim.topology.parse_injections"))
        setup_tracer.fold()
    plain_full = _full_batch(work, scenario, report)
    with Tracer():
        traced_full = _full_batch(work, scenario, report)
    format_s = []
    if plain_full is not None:
        report.notes.append(f"trace_sha256 {plain_full[1]}")
        for _ in range(MIN_REPS):
            start = perf_counter()
            sim.format_text(plain_full[0].records)
            format_s.append(perf_counter() - start)
    if plain_full is None or traced_full is None or plain_full[1] != traced_full[1]:
        report.errors.append("the traced run's trace digest differs from the untraced one")
    del plain_full, traced_full
    plain, traced = Batches(work, scenario), Batches(work, scenario)
    tracer = Tracer()
    began = perf_counter()
    while another_round(began, traced.passes, seconds):
        with gc_paused():
            if not (plain.run_pass(report) and traced.run_pass(report, tracer)):
                break
    if plain.digests != traced.digests:
        report.errors.append("tracing changed a batch's trace digest")

    per_layer = _per_layer(tracer, hops=traced.arrivals, elapsed=traced.total)
    per_layer["sim.trace.records_per_packet"] = traced.records / max(1, traced.injected)
    per_layer["sim.trace.format_text_s"] = min(format_s, default=0.0)
    per_layer["sim.topology.build_topology_s"] = min(build_s)
    per_layer["sim.topology.parse_injections_s"] = min(inject_s)
    per_layer["harness.tracing_overhead"] = plain.rate() / traced.rate()
    per_layer.update(lpm_probe(seed))
    report.set_per_layer(per_layer)
    report.notes.append(f"{traced.passes} traced and untraced passes; "
                        f"{traced.arrivals / max(1, traced.injected):.2f} arrivals per packet")
    return report


def _span_seconds(tracer: Tracer, name: str) -> float:
    """Total duration of the recorded (not yet folded) spans named ``name``."""
    return sum(tracer.ends[i] - tracer.starts[i]
               for i, n in enumerate(tracer.names) if n == name)


def _per_layer(tracer: Tracer, hops: int, elapsed: float) -> dict:
    """Metrics every workload reports: zero where the workload never calls
    a function or has no such step (set-up, the LPM probe)."""
    values = dict.fromkeys(per_layer_units(), 0.0)
    for name in PER_CALL:
        values[f"{name}.us"] = tracer.us_per_call(name)
    for name in PER_HOP:
        values[f"{name}.calls_per_hop"] = tracer.calls(name) / hops if hops else 0.0
    values["framework.dispatch.us"] = tracer.us_per_call("framework.dispatch", self_time=True)
    values["packet.objects_per_hop"] = tracer.packets_built / hops if hops else 0.0
    lookups = tracer.calls("sim.route_lookup")
    values["sim.route_lookup.entries_per_call"] = (
        tracer.route_entries / lookups if lookups else 0.0)
    for layer, own in tracer.layer_self_seconds().items():
        values[f"{layer}.self_share"] = own / elapsed if elapsed else 0.0
    return values


def lpm_probe(seed: int) -> dict:
    """Microseconds per ``RoutingTable.lookup`` at 100, 1,000 and 10,000
    routes over one destination stream (fastest of 5 passes)."""
    tables, stream = workloads.lpm_probe(seed, PROBE_SIZES)
    expected = [("right" if ":" in dst else "left") for dst in stream]
    addresses = [ip_address(dst) for dst in stream]
    out = {}
    for size, prefixes in tables.items():
        table = RoutingTable([
            RouteEntry(network=(IPv6Network(p) if ":" in p else IPv4Network(p)), next_hop=hop)
            for p, hop in prefixes])
        passes = []
        for _ in range(5):
            start = perf_counter()
            got = [table.lookup(a) for a in addresses]
            passes.append((perf_counter() - start) / len(addresses))
            if got != expected:
                raise AssertionError(f"LPM probe at {size} routes resolved wrongly")
        out[f"sim.route_lookup.us_at_{size}"] = 1e6 * min(passes)
    return out


# -- wire workload ------------------------------------------------------------------

def wire_pass(stream, latencies: list) -> int:
    """Run every datagram through the push/pop pipeline once; append each
    packet's host seconds to ``latencies``; return the number that failed."""
    from_bytes = packet_mod.IpPacket.from_bytes
    header_cls = codec.GvnHeader
    failed = 0
    for item in stream:
        start = perf_counter()
        packet = from_bytes(item.data)
        if codec.classify(packet).is_gvn:
            out, _header = codec.pop_gvn(packet)
        else:
            code, flags, pl_data = item.push
            try:
                out = codec.push_gvn(packet, header_cls(next_header=packet.protocol, code=code,
                                                        flags=flags, pl_data=pl_data))
            except OversizePacket:
                out = None
        if out is None:
            ok = item.expected is None
        else:
            wire = out.to_bytes()
            ok = ((out.version == 6 or packet_mod.ipv4_checksum_valid(wire[:20]))
                  and wire == item.expected)
        latencies.append(perf_counter() - start)
        failed += not ok
    return failed


def _wire_pass(stream, report: Report, tracer: Optional[Tracer] = None) -> tuple:
    """One timed pass; returns (seconds, p50, p99) of it."""
    latencies: list = []
    with gc_paused():
        start = perf_counter()
        if tracer is None:
            failed = wire_pass(stream, latencies)
        else:
            with tracer:
                failed = wire_pass(stream, latencies)
        elapsed = perf_counter() - start
    if tracer is not None:
        tracer.fold()
    report.count(len(stream), Counter(wire=failed) if failed else Counter())
    latencies.sort()
    return elapsed, statistics.median(latencies), nearest_rank(latencies, 0.99)


IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import gvn; print(time.perf_counter() - t)")


def import_seconds(src_dir: str) -> float:
    """Time to import ``gvn`` in a fresh interpreter, bytecode cached."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_CODE, src_dir],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def wire_end_to_end(stream, seconds: float, src_dir: str) -> Report:
    """Passes over the stream for ``seconds`` (at least MIN_REPS), with
    SETUP_REPS imports spread over the same time."""
    report = Report()
    _wire_pass(stream, report)  # warm-up, checked too
    passes, imports = [], []
    host = HostSpeed()
    start = perf_counter()
    while len(passes) < MIN_REPS or perf_counter() - start < seconds:
        passes.append(_wire_pass(stream, report))
        host.keep_up()
        if len(imports) < SETUP_REPS * (perf_counter() - start) / seconds:
            imports.append(import_seconds(src_dir))
    while len(imports) < SETUP_REPS:
        imports.append(import_seconds(src_dir))
    add_timings(report, host, len(stream) / min(p[0] for p in passes), min(imports),
                min(p[1] for p in passes), min(p[2] for p in passes))
    report.add("peak_rss_mb", peak_rss_mb(), "MB")
    report.notes.append(f"{len(passes)} passes of {len(stream)} datagrams; latency quantiles "
                        f"per pass ({beyond(len(stream), 0.99)} samples beyond p99 in each), "
                        f"fastest pass; {len(passes) * len(stream)} samples in all")
    return report


def wire_traced(stream, seconds: float) -> Report:
    """Traced passes alternating with untraced ones."""
    report = Report()
    _wire_pass(stream, report)
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_REPS or perf_counter() - start < seconds:
        plain.append(_wire_pass(stream, report))
        traced.append(_wire_pass(stream, report, tracer))
    per_layer = _per_layer(tracer, hops=len(stream) * len(traced),
                           elapsed=sum(p[0] for p in traced))
    per_layer["harness.tracing_overhead"] = min(p[0] for p in traced) / min(p[0] for p in plain)
    report.set_per_layer(per_layer)
    report.notes.append(f"{len(traced)} traced and untraced passes")
    return report

"""Smoke test of the benchmark command: it runs, and every packet meets its
predicted fate.  No speed is asserted.

The traced run patches a wrapper into every place a ``gvn`` module binds a
function the benchmark's tracer lists, so it also fails when one of those
names is renamed or moved.  The untraced ``mixed_fabric`` run covers the
path that produces its end-to-end metrics: batches, the closed loop and
the host calibration.  The benchmark's ``mixed_fabric`` trace on seed 11 is
pinned by its digest.  The tracer's names are also resolved in process,
which names a span whose function is gone without running the benchmark,
and the tracer is installed in process over ``mixed_fabric`` batches, which
names a span the simulator no longer calls through.
"""

import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gvn.sim
from gvn.sim import format_text, load_scenario, run

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace",
                         [("wire_tagging", 0), ("mixed_fabric", 0), ("mixed_fabric", 1)])
def test_benchmark_runs_and_every_fate_holds(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, done.stdout
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


def test_benchmark_trace_digest_on_seed_11(monkeypatch):
    # The digest bench/run.py prints as trace_sha256 for
    # ``--workload mixed_fabric --seed 11``: the trace of 1,024 packets
    # through every GVN layer, built as the benchmark builds it.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    doc = workloads.SIM_WORKLOADS["mixed_fabric"](11).doc
    scenario = load_scenario(json.loads(json.dumps(doc)))
    result = run(scenario.topology, scenario.injections, scenario.max_steps)
    digest = hashlib.sha256(format_text(result.records).encode()).hexdigest()
    assert digest == "2dfa39243198339ce19b17b527422a7c59aba5a97dda6eff872b236f7fdc4ca2"


def test_every_tracer_span_resolves(monkeypatch):
    # As Tracer.install finds them: a method on its class's own __dict__,
    # anything else as a module attribute.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    missing = []
    for name, _layer, module_name, attr in tracing.SPANS:
        module = importlib.import_module(module_name)
        owner, _, method = attr.rpartition(".")
        found = (vars(getattr(module, owner, object)).get(method) if owner
                 else getattr(module, attr, None))
        if found is None:
            missing.append(f"{name} ({module_name}.{attr})")
    assert not missing, f"tracer spans that resolve to nothing: {', '.join(missing)}"


# Every span a mixed_fabric batch reaches; a call that goes around one of
# these wrappers zeroes its per-layer metric.
REACHED_SPANS = ("codec.classify", "codec.parse_gvn", "sim.route_lookup", "sim.flow_match",
                 "sim.edge_ingress", "framework.dispatch", "logics.nfv_step",
                 "logics.vpn_check", "logics.icn_route", "packet.with_ttl",
                 "sim.trace.format_text")


def test_every_reached_tracer_span_records_calls(monkeypatch):
    # Batches of 32 injections, run and rendered as the benchmark's traced
    # pass does, through the names the tracer patches.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    doc = workloads.SIM_WORKLOADS["mixed_fabric"](11).doc
    scenario = load_scenario(json.loads(json.dumps(doc)))
    injections = scenario.injections
    tracer = tracing.Tracer()
    for start in range(0, len(injections), 32):
        with tracer:
            result = gvn.sim.run(scenario.topology, injections[start:start + 32],
                                 scenario.max_steps)
            gvn.sim.format_text(result.records)
        tracer.fold()
    silent = [name for name in REACHED_SPANS if tracer.calls(name) == 0]
    assert not silent, f"tracer spans that recorded no call: {', '.join(silent)}"

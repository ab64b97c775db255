"""Spans around calls into each ``gvn`` module, recorded from outside it.

``Tracer.install`` replaces each public function listed in ``SPANS`` with a
wrapper that records (name, start, end, parent) in memory, wherever a
``gvn`` module binds that function (``gvn.sim.engine``, ``gvn.framework``,
``gvn.sim.trace`` and the logics import names directly), and on the class for
methods.  ``IpPacket.__post_init__`` is wrapped only to count constructions.
``uninstall`` restores every binding, so untraced runs in the same process
execute the original code.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Time inside a
listed function that calls unlisted code (a dataclass constructor,
``ip_level_action``) counts toward the listed function's layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, layer, module, attribute); "Class.method" patches the class.
SPANS = (
    ("codec.parse_gvn", "codec", "gvn.codec", "parse_gvn"),
    ("codec.classify", "codec", "gvn.codec", "classify"),
    ("codec.push_gvn", "codec", "gvn.codec", "push_gvn"),
    ("codec.pop_gvn", "codec", "gvn.codec", "pop_gvn"),
    ("packet.with_ttl", "packet", "gvn.packet", "IpPacket.with_ttl"),
    ("packet.with_dst", "packet", "gvn.packet", "IpPacket.with_dst"),
    ("packet.with_protocol_and_payload", "packet", "gvn.packet",
     "IpPacket.with_protocol_and_payload"),
    ("packet.to_bytes", "packet", "gvn.packet", "IpPacket.to_bytes"),
    ("packet.from_bytes", "packet", "gvn.packet", "IpPacket.from_bytes"),
    ("packet.ipv4_header_checksum", "packet", "gvn.packet", "ipv4_header_checksum"),
    ("packet.ipv4_checksum_valid", "packet", "gvn.packet", "ipv4_checksum_valid"),
    ("framework.dispatch", "framework", "gvn.framework", "PlRegistry.dispatch"),
    ("framework.legacy_action", "framework", "gvn.framework", "legacy_action"),
    ("logics.nfv_step", "logics", "gvn.logics.nfv", "nfv_step"),
    ("logics.nfv_encap", "logics", "gvn.logics.nfv", "nfv_encap"),
    ("logics.vpn_check", "logics", "gvn.logics.vpn", "vpn_check"),
    ("logics.icn_route", "logics", "gvn.logics.icn", "icn_route"),
    ("sim.run", "sim.engine", "gvn.sim.engine", "run"),
    ("sim.flow_match", "sim.engine", "gvn.sim.engine", "flow_match"),
    ("sim.edge_ingress", "sim.engine", "gvn.sim.engine", "edge_ingress"),
    ("sim.route_lookup", "sim.topology", "gvn.sim.topology", "RoutingTable.lookup"),
    ("sim.topology.load_scenario", "sim.topology", "gvn.sim.topology", "load_scenario"),
    ("sim.topology.build_topology", "sim.topology", "gvn.sim.topology", "build_topology"),
    ("sim.topology.parse_injections", "sim.topology", "gvn.sim.topology", "parse_injections"),
    ("sim.trace.summarize", "sim.trace", "gvn.sim.trace", "summarize"),
    ("sim.trace.format_text", "sim.trace", "gvn.sim.trace", "format_text"),
)
LAYERS = ("codec", "packet", "framework", "logics", "sim.engine", "sim.topology", "sim.trace")
LAYER_OF = {name: layer for name, layer, _module, _attr in SPANS}


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack = [-1]
        self.packets_built = 0
        self.route_entries = 0
        # span name -> [calls, inclusive seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self._undo: list = []

    def _span(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gvn" or n.startswith("gvn.")) and m is not None]
        for name, _layer, module_name, attr in SPANS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._span(name, original.__func__))
                else:
                    replacement = self._span(name, original)
                self._set(cls, method, replacement)
                if method == "lookup":
                    self._count_route_entries(cls, replacement)
                continue
            original = getattr(module, attr)
            replacement = self._span(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, replacement)
        packet_cls = importlib.import_module("gvn.packet").IpPacket
        post_init = packet_cls.__dict__["__post_init__"]

        def counted(packet_self):
            self.packets_built += 1
            return post_init(packet_self)

        self._set(packet_cls, "__post_init__", counted)

    def _count_route_entries(self, cls, traced_lookup) -> None:
        def lookup(table, dst):
            self.route_entries += len(table)
            return traced_lookup(table, dst)

        self._set(cls, "lookup", lookup)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def fold(self) -> None:
        """Add the recorded spans into ``stats`` and drop them."""
        names, starts, ends, parents, stats = (
            self.names, self.starts, self.ends, self.parents, self.stats)
        for i, name in enumerate(names):
            duration = ends[i] - starts[i]
            entry = stats[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration
            if parents[i] >= 0:
                stats[names[parents[i]]][2] -= duration
        for spans in (names, starts, ends, parents):
            spans.clear()

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def us_per_call(self, name: str, self_time: bool = False) -> float:
        """Mean microseconds per call (inclusive unless ``self_time``); 0
        when the workload never calls the function."""
        if name not in self.stats or not self.stats[name][0]:
            return 0.0
        calls, inclusive, own = self.stats[name]
        return 1e6 * (own if self_time else inclusive) / calls

    def layer_self_seconds(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, _inclusive, own) in self.stats.items():
            totals[LAYER_OF[name]] += own
        return totals

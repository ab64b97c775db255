"""Scenario loading against a pinned corpus of one-value mutations.

Each leaf of each document (a scalar, or an empty list or object) is
replaced in turn by each value of ``MUTATIONS``, and each object gains an
unknown key.  The outcome of every load, ``accepted`` or the SchemaError's
class and message, is compared with ``tests/golden/schema_refusals.txt``.
The documents are the bundled scenarios and ``FULL_DOC``, which uses every
key of the README's field reference.

When a refusal is meant to change, rewrite the golden file with
``PYTHONPATH=src python -m tests.test_schema_corpus`` and review its diff.
"""

import json
from pathlib import Path

from gvn.errors import SchemaError
from gvn.sim import load_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "schema_refusals.txt"
UNKNOWN_KEY = "unknown"
MUTATIONS = (None, True, 1.5, -1, 2**41, "", "x", [], {})

# Every key of the field reference, IPv6 addresses, both PL specs, codes
# written as an integer, as text and as a name, and each flow-rule action.
FULL_DOC = {
    "name": "every key",
    "max_steps": 50,
    "nodes": [
        {"id": "h1", "kind": "gvn_end_host", "addresses": ["10.0.0.1", "fd00::1"]},
        {"id": "e1", "kind": "gvn_edge", "addresses": ["10.0.0.254", "fd00::fe"]},
        {"id": "g1", "kind": "gvn_router", "addresses": ["10.1.0.1"]},
        {"id": "f1", "kind": "nfv_function", "addresses": ["10.1.0.2"]},
        {"id": "r1", "kind": "legacy_router", "addresses": ["10.2.0.1"]},
        {"id": "h2", "kind": "legacy_host", "addresses": ["10.3.0.1", "fd03::1"]},
    ],
    "links": [["h1", "e1"], ["e1", "g1"], ["g1", "f1"], ["g1", "r1"], ["r1", "h2"]],
    "routes": {
        "h1": [{"prefix": "0.0.0.0/0", "next_hop": "e1"}, {"prefix": "::/0", "next_hop": "e1"}],
        "e1": [{"prefix": "10.0.0.0/24", "next_hop": "h1"},
               {"prefix": "fd00::/64", "next_hop": "h1"},
               {"prefix": "0.0.0.0/0", "next_hop": "g1"}, {"prefix": "::/0", "next_hop": "g1"}],
        "g1": [{"prefix": "10.1.0.2/32", "next_hop": "f1"},
               {"prefix": "10.0.0.0/16", "next_hop": "e1"},
               {"prefix": "fd00::/64", "next_hop": "e1"}, {"prefix": "0.0.0.0/0", "next_hop": "r1"},
               {"prefix": "::/0", "next_hop": "r1"}],
    },
    "chains": [{"spi": 7, "functions": [{"node": "f1", "address": "10.1.0.2"}]}],
    "registries": {
        "g1": [{"pl": "nfv"},
               {"pl": "icn", "routes": [{"content": "movie", "next_hop": "r1"}]},
               {"pl": "vpn", "allowed": [10, 11]}],
    },
    "edge_policies": {
        "e1": {
            "ingress": [
                {"match": {"dst_prefix": "10.3.0.0/16", "src_prefix": "10.0.0.0/24",
                           "protocol": 17},
                 "action": {"push": {"code": "0x2a", "flags": 128, "pl_data_hex": "0000000a"}}},
                {"match": {"protocol": 6}, "action": {"encap_chain": 7}},
            ],
            "pop_egress": ["10.0.0.0/24", "fd00::/64"],
        },
    },
    "flow_rules": {
        "g1": [
            {"priority": 5,
             "match": {"code": "icn", "pl_prefix": {"offset": 0, "hex": "00"},
                       "dst_prefix": "10.3.0.0/16"},
             "action": {"kind": "forward_to", "next_hop": "r1"}},
            {"priority": 4, "match": {"code": 42}, "action": {"kind": "forward_by_ip"}},
            {"priority": 3, "match": {"dst_prefix": "fd03::/64"}, "action": {"kind": "deliver"}},
            {"priority": 2, "match": {"code": "0x99"},
             "action": {"kind": "drop", "reason": "NoRoute"}},
            {"priority": 1, "match": {"dst_prefix": "10.9.0.0/16"},
             "action": {"kind": "push", "header": {"code": "opaque",
                                                   "pl": {"kind": "icn", "name": "clip"}}}},
            {"match": {"code": "vpn"}, "action": {"kind": "pop"}},
        ],
    },
    "injections": [
        {"node": "h1", "time": 0,
         "packet": {"version": 4, "src": "10.0.0.1", "dst": "10.3.0.1", "protocol": 17,
                    "ttl": 64, "tos": 0, "ident": 1, "flags": 2, "frag_offset": 0,
                    "traffic_class": 0, "flow_label": 0, "payload_hex": "cafe"},
         "gvn": {"code": "vpn", "flags": 0, "pl": {"kind": "vpn", "vnid": 10}}},
        {"node": "h1", "time": 1,
         "packet": {"version": 6, "src": "fd00::1", "dst": "fd03::1", "protocol": 58,
                    "ttl": 32, "traffic_class": 4, "flow_label": 5, "payload_hex": ""},
         "gvn": {"code": 1234, "pl_data_hex": "aabbccdd"}},
        {"node": "e1", "time": 2,
         "packet": {"src": "10.0.0.1", "dst": "10.3.0.1", "protocol": 6},
         "encap_chain": 7},
    ],
}

DOCUMENTS = {**{path.stem: json.loads(path.read_text())
                for path in sorted((ROOT / "scenarios").glob("*.json"))},
             "full_doc": FULL_DOC}


def _walk(value, path=()):
    """(path, value) for every value of a JSON tree, in document order."""
    yield path, value
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _walk(child, path + (key,))


def _path_text(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path) or "."


def _outcome(doc) -> str:
    try:
        load_scenario(doc)
    except SchemaError as exc:
        text = f"{type(exc).__name__}: {exc}"
        assert "\n" not in text
        return text
    return "accepted"


def corpus_lines():
    """One line per load: document, path, mutation and outcome, tab-separated."""
    for name, doc in DOCUMENTS.items():
        text = json.dumps(doc)
        for path, value in _walk(doc):
            edits = []
            if isinstance(value, dict):
                edits.append((f"+{UNKNOWN_KEY}", {**value, UNKNOWN_KEY: 0}))
            if not (isinstance(value, (dict, list)) and value):
                edits.extend((json.dumps(new), new) for new in MUTATIONS)
            for label, new in edits:
                mutant = json.loads(text)
                if path:
                    holder = mutant
                    for key in path[:-1]:
                        holder = holder[key]
                    holder[path[-1]] = new
                else:
                    mutant = new
                yield f"{name}\t{_path_text(path)}\t{label}\t{_outcome(mutant)}"


def test_every_document_of_the_corpus_loads():
    assert all(_outcome(doc) == "accepted" for doc in DOCUMENTS.values())


def test_one_value_mutations_load_or_are_refused_as_pinned():
    expected = GOLDEN.read_text().splitlines()
    actual = list(corpus_lines())
    changed = [(want, got) for want, got in zip(expected, actual) if want != got]
    assert changed[:10] == [] and len(actual) == len(expected)


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in corpus_lines()))

"""The correctness oracle: what every (query, document) cell must answer.

One untimed pass per invocation evaluates each distinct cell with the
top-down reference evaluator (``XPathEngine.evaluate(...,
algorithm="topdown")``) on the generator's own in-memory documents — not
on anything the program under test parsed, stored or decoded — and
reduces the answer to ``[kind, count, digest]``. Workers reduce what the
program answered the same way and compare, so a wrong item, a wrong
order, a wrong scalar or a wrong type is a failed op.

Two reductions, one per transport, both over the same identity of a node
(its position in document order):

* over the wire a node-set arrives as rendered path strings, so the
  digest covers the strings (:func:`reduce_payload`);
* in process it is a list of nodes, and rendering paths there would put
  benchmark work inside the timed op, so the digest covers the pre-order
  numbers (:func:`reduce_value`).
"""

from __future__ import annotations

import multiprocessing
import zlib
from array import array

from repro import XPathEngine


def _scalar(value) -> list:
    if isinstance(value, bool):
        return ["boolean", 1, "true" if value else "false"]
    if isinstance(value, (int, float)):
        return ["number", 1, repr(float(value))]
    return ["string", 1, str(value)]


def reduce_value(value) -> list:
    """``[kind, count, digest]`` of an in-process result."""
    if isinstance(value, list):
        pres = array("q", [node.pre for node in value])
        return ["node-set", len(value), format(zlib.crc32(pres.tobytes()), "08x")]
    return _scalar(value)


def reduce_payload(payload: dict) -> list:
    """``[kind, count, digest]`` of a wire payload (``render_value``'s
    shape: kind + count + items, or kind + value)."""
    if payload.get("kind") == "node-set":
        items = payload.get("items", [])
        digest = format(zlib.crc32("\n".join(items).encode("utf-8")), "08x")
        return ["node-set", payload.get("count"), digest]
    return _scalar(payload.get("value"))


def _reduce_as_wire(value) -> list:
    if isinstance(value, list):
        return reduce_payload(
            {
                "kind": "node-set",
                "count": len(value),
                "items": [node.path() for node in value],
            }
        )
    return _scalar(value)


def spec_cells(spec: dict):
    """Every distinct (query, document name) cell a spec can ask for."""
    seen = set()

    def emit(query, name):
        if (query, name) not in seen:
            seen.add((query, name))
            yield query, name

    if "cells" in spec:
        for query, name in spec["cells"]:
            yield from emit(query, name)
        return
    for op in spec.get("setup_ops", []) + spec["ops"]:
        if op.get("kind") == "put":
            continue
        names = op["docs"] if "docs" in op else [op["name"]]
        for name in names:
            for query in op["queries"]:
                yield from emit(query, name)


def _evaluate_shard(shard: int) -> list:
    spec, documents = _SHARED
    reduce = _reduce_as_wire if spec["transport"] == "serve" else reduce_value
    engines: dict = {}
    answers = []
    for query, name in list(spec_cells(spec))[shard::PROCESSES]:
        engine = engines.get(name)
        if engine is None:
            engine = engines[name] = XPathEngine(documents[name])
        answers.append((name, query, reduce(engine.evaluate(query, algorithm="topdown"))))
    return answers


#: What the forked oracle processes read; set only around the fork.
_SHARED: tuple = ()
#: One oracle process per CPU of the reference host.
PROCESSES = 2


def expected_results(spec: dict, documents: dict) -> dict:
    """``{document name: {query: [kind, count, digest]}}`` for a spec.

    The pass is untimed but it is wall time the run has to fit in, and the
    reference evaluator is slower than the program it checks, so the
    cells are dealt round-robin to PROCESSES forked children (nothing
    else is running yet, and the parent has no threads, so ``fork`` is
    safe and spares re-generating the documents in each child)."""
    global _SHARED
    _SHARED = (spec, documents)
    try:
        with multiprocessing.get_context("fork").Pool(PROCESSES) as pool:
            parts = pool.map(_evaluate_shard, range(PROCESSES))
    finally:
        _SHARED = ()
    expected: dict = {}
    for part in parts:
        for name, query, answer in part:
            expected.setdefault(name, {})[query] = answer
    return expected

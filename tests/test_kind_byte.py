"""The kind byte on :class:`~repro.xml.index.NodeIndex` is the axis
kernels' attribute-membership test.

``index.kinds`` is the documents' own kind column, and ``kinds[p] ==
ATTR`` must hold for exactly the pres of the attribute partition on
parsed, snapshot-decoded and builder-made documents. The kernels that
test membership with it — the inverse ``descendant``,
``descendant-or-self``, ``child`` and ``attribute`` steps, both sibling
axes in either direction, the inverse ``following`` / ``preceding`` and
``descendant-or-self::node()`` — run from origin blocks that include
attributes with the width branch forced both ways
(``VECTOR_MIN_BLOCK`` 0 and ``sys.maxsize``). Each answer equals the
Definition-1 scan's (``kernel_mode_forced("scan")``), each dispatch is
counted exactly once — one kernel run under ``auto``, one scan under
``scan`` — and on a column document the kernels box no node.
"""

from __future__ import annotations

import random
import sys
from unittest import mock

import pytest

from repro import stats
from repro.axes.axes import kernel_mode_forced
from repro.axes.vec import (
    FORWARD_VECTOR_AXES,
    INVERSE_VECTOR_AXES,
    VECTOR_MIN_BLOCK,
    forward_step,
    inverse_step,
)
from repro.workloads.documents import book_catalog, random_document
from repro.xml.index import ATTR, node_index
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.snapshot import decode_snapshot, encode_snapshot
from repro.xpath.ast import NodeTest

SEED = 20030626

INVERSE_AXES = (
    "descendant", "descendant-or-self", "child", "attribute",
    "following", "preceding", "following-sibling", "preceding-sibling",
)
FORWARD_CASES = (
    ("following-sibling", NodeTest("node")),
    ("preceding-sibling", NodeTest("name", "chapter")),
    ("descendant-or-self", NodeTest("node")),
)


def _documents():
    """``(kind, document)``: parsed, snapshot-decoded and builder-made."""
    rng = random.Random(SEED)
    built = [book_catalog(books=3)] + [random_document(rng, max_nodes=30) for _ in range(3)]
    parsed = [parse_document(serialize(document)) for document in built]
    decoded = [decode_snapshot(encode_snapshot(document)) for document in parsed]
    return (
        [("parsed", d) for d in parsed]
        + [("decoded", d) for d in decoded]
        + [("built", d) for d in built]
    )


def _blocks(index, rng):
    """Sorted origin blocks with attributes in them."""
    attributes = list(index.attributes)
    everything = list(range(index.total))
    mixed = sorted(set(rng.sample(everything, min(8, index.total)) + attributes[:3]))
    return [block for block in (everything, attributes, mixed, attributes[:1]) if block]


DOCUMENTS = _documents()


@pytest.mark.parametrize(
    "kind, document", DOCUMENTS, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(DOCUMENTS)]
)
def test_the_kind_byte_marks_exactly_the_attribute_partition(kind, document):
    index = node_index(document)
    attributes = set(index.attributes)
    assert attributes, "the corpus must have attributes"
    assert [p for p in range(index.total) if index.kinds[p] == ATTR] == sorted(attributes)
    if kind != "built":
        assert index.kinds is document.columns.kinds  # the column, not a copy


def _tick(before, after) -> dict:
    return {
        key: after[key] - before[key]
        for key in ("fused_hits", "fallback_scans", "vector_ops", "nodes_materialized")
        if after[key] != before[key]
    }


def _kernel_tick(block, columnar: bool) -> dict:
    return {"vector_ops" if columnar and len(block) >= VECTOR_MIN_BLOCK else "fused_hits": 1}


@pytest.mark.parametrize("width", [0, sys.maxsize], ids=["wide", "narrow"])
def test_membership_kernels_match_the_scan_from_attribute_origins(width):
    rng = random.Random(SEED + 1)
    for kind, document in _documents():  # fresh: the scans below box nodes
        cells = []  # (step, block, auto answer)
        with mock.patch("repro.axes.axes.VECTOR_MIN_BLOCK", width):
            for block in _blocks(node_index(document), rng):
                for axis in INVERSE_AXES:
                    before = stats.axis_kernel_stats.snapshot()
                    answer = inverse_step(document, axis, block)
                    tick = _tick(before, stats.axis_kernel_stats.snapshot())
                    assert tick == _kernel_tick(block, axis in INVERSE_VECTOR_AXES), (kind, axis)
                    cells.append(((inverse_step, axis), block, answer))
                for axis, test in FORWARD_CASES:
                    before = stats.axis_kernel_stats.snapshot()
                    answer = list(forward_step(document, axis, block, test))
                    tick = _tick(before, stats.axis_kernel_stats.snapshot())
                    # A narrow descendant-or-self step may decline to the
                    # scan (the priced fallback); when the kernel runs, it
                    # boxes no node.
                    if "fallback_scans" not in tick:
                        assert tick == _kernel_tick(block, axis in FORWARD_VECTOR_AXES), (
                            kind, axis,
                        )
                    cells.append(((forward_step, axis, test), block, answer))
        with kernel_mode_forced("scan"):
            for step, block, answer in cells:
                before = stats.axis_kernel_stats.snapshot()
                if step[0] is inverse_step:
                    scanned = inverse_step(document, step[1], block)
                else:
                    scanned = forward_step(document, step[1], block, step[2])
                tick = _tick(before, stats.axis_kernel_stats.snapshot())
                assert tick.pop("fallback_scans") == 1
                assert set(tick) <= {"nodes_materialized"}
                assert answer == scanned, (kind, step[1], len(block))

"""EXP-A3 (infrastructure) — substrate throughput.

Not a paper experiment: baseline numbers for the layers below the
algorithms (XML parse, serialize, axis set functions, id index), so
regressions in the substrate are visible separately from algorithmic
changes. The axis functions must behave linearly — Definition 1's O(|D|)
is the foundation of every theorem upstream.
"""

from harness import ExperimentReport, loglog_slope, time_query

from repro.axes.axes import axis_set, inverse_axis_set
from repro.workloads.documents import book_catalog
from repro.xml.index import node_index
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize

import time


def bench_parse_catalog(benchmark):
    source = serialize(book_catalog(books=100))
    document = benchmark(lambda: parse_document(source))
    assert document.root_element.name == "catalog"


def bench_serialize_catalog(benchmark):
    document = book_catalog(books=100)
    text = benchmark(lambda: serialize(document))
    assert text.startswith("<catalog")


def bench_axis_functions_linear(benchmark):
    benchmark.pedantic(_run_axis_sweep, rounds=1, iterations=1)


def _run_axis_sweep():
    report = ExperimentReport("EXP-A3", "axis set functions are O(|D|) (Definition 1)")
    sizes = []
    per_axis: dict[str, list[float]] = {}
    axes = ("descendant", "following", "preceding", "ancestor", "following-sibling")
    rows = []
    for books in (100, 300, 900):
        document = book_catalog(books=books)
        elements = node_index(document).elements
        X = list(elements[: len(elements) // 2])
        sizes.append(len(document.nodes))
        row = [len(document.nodes)]
        for axis in axes:
            started = time.perf_counter()
            for _ in range(3):
                axis_set(document, axis, X)
                inverse_axis_set(document, axis, X)
            elapsed = (time.perf_counter() - started) / 3
            per_axis.setdefault(axis, []).append(elapsed)
            row.append(f"{elapsed * 1000:.2f}")
        rows.append(row)
    report.table(["|D|"] + [f"{a} ms" for a in axes], rows)
    report.note("")
    for axis in axes:
        slope = loglog_slope(sizes, per_axis[axis])
        report.note(f"{axis:>18}: time degree {slope:.2f} (must be ~1)")
        assert slope < 1.6, axis
    report.finish()

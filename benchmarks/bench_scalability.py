"""EXP-A2 (ablation/scale) — the full engine on large documents.

Production-credibility check rather than a paper experiment: the auto-
dispatched engine (fragment classification + OPTMINCONTEXT/Core XPath)
on catalogs up to tens of thousands of nodes, mixed query set.
Confirms nothing degrades super-linearly for the fragments that promise
linear/quadratic behaviour at realistic sizes.
"""

from harness import ExperimentReport, loglog_slope, time_query

from repro.engine import XPathEngine
from repro.workloads.documents import book_catalog

QUERIES = {
    "core": "//book/chapter[heading]",
    "wadler": "//chapter[position() = last()]",
    "value": "//book[price > 50]/title",
    "full": "//book[count(chapter) > 2]/title",
}


def bench_scalability_sweep(benchmark):
    benchmark.pedantic(_run, rounds=1, iterations=1)


def _run():
    report = ExperimentReport("EXP-A2", "auto-dispatched engine at scale (book catalogs)")
    sizes = []
    times: dict[str, list[float]] = {name: [] for name in QUERIES}
    rows = []
    for books in (50, 150, 450, 1350):
        document = book_catalog(books=books)
        engine = XPathEngine(document)
        size = len(document.nodes)
        sizes.append(size)
        row = [books, size]
        for name, query in QUERIES.items():
            elapsed = time_query(engine, query, "auto", repeat=2)
            times[name].append(elapsed)
            row.append(f"{elapsed * 1000:.1f}")
        rows.append(row)
    report.table(
        ["books", "|D|"] + [f"{name} ms" for name in QUERIES],
        rows,
    )
    report.note("")
    for name in QUERIES:
        slope = loglog_slope(sizes, times[name])
        report.note(f"{name:>7}: time degree {slope:.2f}")
        assert slope < 2.6, name
    report.finish()


def bench_large_catalog_core_query(benchmark):
    engine = XPathEngine(book_catalog(books=400))
    compiled = engine.compile(QUERIES["core"])
    benchmark(lambda: engine.evaluate(compiled))


def bench_large_catalog_wadler_query(benchmark):
    engine = XPathEngine(book_catalog(books=400))
    compiled = engine.compile(QUERIES["wadler"])
    benchmark(lambda: engine.evaluate(compiled))

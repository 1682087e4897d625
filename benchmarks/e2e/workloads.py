"""Seeded input generators for the four end-to-end workloads.

Every generator takes ``(seed, scale)`` and returns a :class:`Workload`:
a JSON-serialisable ``spec`` (what a worker replays: document markup,
set-up ops, the measured op list) plus the in-memory ``documents`` the
oracle evaluates against. The program under test only ever sees the
spec. ``scale`` multiplies every measured op count (``--seconds`` and
``--smoke`` go through it), never the set-up.

What a seed may change is *which* literals, documents and orderings a run
sees; what it may not change is how much work the run is. The driver
compares runs made with different seeds, so each generator fixes the
multiset of document sizes, the per-template op counts and the cost
profile of the hot set, and lets the seed permute inside those strata.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import serialize
from repro.workloads import (
    balanced_tree,
    book_catalog,
    core_family,
    numbered_line,
    position_heavy_query,
    wadler_family,
)

WORKLOADS = ("serve-hot", "serve-cold", "batch", "ingest")

#: Measured ops per repetition at scale 1.0 (``--seconds`` equal to
#: BENCHMARK.json's ``run_seconds``). Sized on the reference host so a
#: measured phase is 2-3 s when the host is calm and a run 22-30 s: five
#: repetitions with their set-ups and the oracle pass then fit the
#: driver's 37 s per run even when the host runs 1.3x slower. Every count
#: stays >= MIN_OPS so the p95 has at least ten samples beyond it in each
#: repetition.
BASE_OPS = {"serve-hot": 4000, "serve-cold": 300, "batch": 210, "ingest": 200}
MIN_OPS = 200


@dataclass
class Workload:
    name: str
    spec: dict
    documents: dict  # name -> repro Document, for the oracle only


def op_count(name: str, scale: float) -> int:
    """Measured ops per repetition. Only --smoke (scale < 0.2) may go
    below MIN_OPS."""
    count = round(BASE_OPS[name] * scale)
    if scale >= 0.2:
        return max(MIN_OPS, count)
    return max(10, count)


def _catalog(rng: random.Random, books: int, jitter: int = 2):
    """A book catalog of about ``books`` books (35 nodes per book)."""
    return book_catalog(books + rng.randint(-jitter, jitter))


def _named(prefix: str, documents: list) -> dict:
    return {f"{prefix}{index:02d}": doc for index, doc in enumerate(documents)}


def _markup(documents: dict) -> list:
    return [{"name": name, "xml": serialize(doc)} for name, doc in documents.items()]


# ----------------------------------------------------------------------
# Query templates over the book-catalog vocabulary
# ----------------------------------------------------------------------

#: Core XPath (Definition 12): paths, and/or/not over paths, no values.
_CORE_SUBJECTS = (
    ("//book", ("title", "price", "authors/author", "chapter/heading", "ref", "@id")),
    ("/catalog/book", ("title", "chapter", "authors", "chapter/pages", "@year")),
    ("//chapter", ("heading", "pages", "@num", "parent::book/title")),
    ("/catalog/book/chapter", ("pages", "heading", "following-sibling::chapter")),
)
_CORE_BOOK_TESTS = (
    "ref",
    "authors/author/following-sibling::author",
    "following-sibling::book/ref",
    "chapter/pages",
    "preceding-sibling::book",
    "@lang",
    "authors[author]",
    "chapter[heading]/following-sibling::chapter",
)
_CORE_CHAPTER_TESTS = (
    "heading",
    "preceding-sibling::chapter",
    "following-sibling::chapter/pages",
    "parent::book/ref",
    "@num",
    "following-sibling::ref",
    "parent::book[authors/author/following-sibling::author]",
)
_CORE_SHAPES = (
    "{a}",
    "not({a})",
    "{a} and {b}",
    "{a} or not({b})",
    "not({a}) and {b}",
    "{a} and ({b} or {c})",
    "not({a} or {b})",
)


def _core_queries(rng: random.Random, count: int, used: set) -> list:
    """``count`` Core XPath queries not yet in ``used``. Core XPath has
    no literals, so distinctness comes from the seeded choice of
    structure."""
    queries = []
    while len(queries) < count:
        subject, tails = rng.choice(_CORE_SUBJECTS)
        tests = _CORE_CHAPTER_TESTS if "chapter" in subject else _CORE_BOOK_TESTS
        query = f"{subject}[{_core_predicate(rng, tests)}]/{rng.choice(tails)}"
        if query not in used:
            used.add(query)
            queries.append(query)
    return queries


def _literal(rng: random.Random, low: float, high: float, used: set) -> str:
    """A two-decimal literal nobody else in this run uses, so the query
    string around it occurs exactly once."""
    while True:
        text = f"{rng.uniform(low, high):.2f}"
        if text not in used:
            used.add(text)
            return text


#: Extended Wadler Fragment: value comparisons and position arithmetic.
_WADLER_TEMPLATES = (
    ("//book[price > {x}]/title", 30, 70),
    ("//book[@year >= {x} and price < 60]/chapter[@num = 2]/heading", 1995, 2012),
    ("//chapter[pages > {x}][position() = 2]/heading", 15, 40),
    ("//book[position() > last() - {x}]/chapter[last()]/pages", 5, 40),
    ("/catalog/book[price <= {x} or @lang = 'de']/authors/author[1]", 20, 60),
    ("//chapter[pages < {x} and position() != last()]/pages", 20, 45),
    ("//book[position() mod 7 = 3 and price > {x}]/title", 10, 50),
)
#: Full XPath (count/sum/id, position arithmetic over node-set sizes).
_FULL_TEMPLATES = (
    ("//book[count(chapter[pages > {x}]) >= 2]/title", 15, 40),
    ("id(//book[price > {x}]/ref)/title", 60, 95),
    ("count(//book[authors/author = 'Author 3' and price > {x}])", 10, 60),
    ("//book[count(preceding-sibling::book[@lang = 'de']) < {x}]/title", 3, 25),
    ("sum(//book[price > {x}]/price) div count(//book)", 20, 80),
    ("//book[position() > count(chapter[pages > {x}]) * 9]/@id", 15, 40),
)


def _templated(rng: random.Random, templates, count: int, used: set) -> list:
    """``count`` queries, the templates taken round-robin so the mix does
    not depend on the seed."""
    queries = []
    for index in range(count):
        template, low, high = templates[index % len(templates)]
        queries.append(template.format(x=_literal(rng, low, high, used)))
    return queries


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------

#: Twelve catalogs of ~1.4k-5k nodes.
_HOT_BOOKS = (40, 49, 58, 68, 77, 86, 96, 105, 114, 124, 133, 143)
#: Scalars, small (<= 10 items) and large (tens to ~200 items) node-sets.
HOT_QUERIES = (
    "count(//book)",
    "count(//chapter[pages > 30])",
    "sum(//price)",
    "string(/catalog/book[1]/title)",
    "boolean(//book[@lang='de'])",
    "count(//author)",
    "/catalog/book[position() <= 5]/title",
    "//book[@id='bk7']/chapter",
    "/catalog/book[last()]/authors/author",
    "//book[price > 97]/title",
    "id('bk3')/chapter/heading",
    "//book/title",
    "//chapter[@num='1']/heading",
    "//book[@lang='en']/price",
    "//chapter/pages[. > 25]",
    "//author",
)
ZIPF_EXPONENT = 1.1


def _zipf_counts(cells: int, total: int) -> list:
    """How often the rank-k cell is requested: Zipf(1.1) expectations
    rounded by largest remainder so the counts sum to ``total`` exactly
    (sampling would add seed noise to an identical distribution)."""
    weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, cells + 1)]
    norm = sum(weights)
    exact = [total * weight / norm for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(
        range(cells), key=lambda index: exact[index] - counts[index], reverse=True
    )
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def _van_der_corput(count: int) -> list:
    """0..count-1 in bit-reversal order: every prefix is spread evenly."""
    bits = max(1, (count - 1).bit_length())
    order = [int(format(index, f"0{bits}b")[::-1], 2) for index in range(1 << bits)]
    return [position for position in order if position < count]


def serve_hot(seed: int, scale: float) -> Workload:
    rng = random.Random(f"serve-hot:{seed}")
    sizes = list(_HOT_BOOKS)
    rng.shuffle(sizes)
    documents = _named("hot", [_catalog(rng, books) for books in sizes])
    # Rank the cells for the Zipf draw. A reply costs what its item count
    # costs and the first few ranks carry a third of the traffic, so a
    # free shuffle would make the run cheap or dear by seed (measured: 2x
    # in p50). Lay the cells out by (query, document size), walk that
    # layout in bit-reversal so any prefix of ranks covers every query
    # class and size, and let the seed choose only among three documents
    # of neighbouring size.
    by_size = sorted(documents, key=lambda name: len(documents[name].nodes))
    cells = []
    for query_index in range(len(HOT_QUERIES)):
        for start in range(0, len(by_size), 3):
            trio = by_size[start : start + 3]
            rng.shuffle(trio)
            cells += [(query_index, name) for name in trio]
    ranked = [cells[position] for position in _van_der_corput(len(cells))]
    counts = _zipf_counts(len(ranked), op_count("serve-hot", scale))
    ops = [index for index, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(ops)
    spec = {
        "workload": "serve-hot",
        "transport": "serve",
        "documents": _markup(documents),
        "cells": [[HOT_QUERIES[q], name] for q, name in ranked],
        # Set-up evaluates every cell once (cold), then once more (the
        # first hit), so the measured phase is hits only.
        "setup_cells": list(range(len(ranked))) * 2,
        "ops": ops,
    }
    return Workload("serve-hot", spec, documents)


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------

#: Eight catalogs of ~2.6k-4.5k nodes.
_COLD_BOOKS = (75, 82, 90, 98, 105, 112, 120, 128)
COLD_WARMUP = 40
#: Share of Core XPath / Extended Wadler / full XPath queries.
COLD_MIX = (0.40, 0.35, 0.25)


def _cold_queries(rng: random.Random, count: int, used: set, tree_core: list) -> list:
    """``count`` (query, document) pairs in the COLD_MIX proportions,
    shuffled; a document is ``tree``, ``line`` or the size rank of a
    catalog. No query text occurs twice in a run: literals and Core
    structures are drawn without replacement through ``used``, and
    ``tree_core`` is the shrinking pool of ``core_family`` texts.

    Which catalog a query runs on is fixed by its template and by how
    often that template has been used, not drawn: what a template costs
    depends on the document's size, and the p95 sits among a dozen
    expensive (template, size) pairs."""
    core = round(count * COLD_MIX[0])
    wadler = round(count * COLD_MIX[1])
    full = count - core - wadler

    def on_catalogs(queries: list, templates: int) -> list:
        return [
            (query, (index // templates + index % templates) % len(_COLD_BOOKS))
            for index, query in enumerate(queries)
        ]

    # A tenth of each family runs the repro.workloads generators on the
    # shapes they were built for; the rest runs on the catalogs.
    pairs = []
    for _ in range(min(core // 10, len(tree_core))):
        pairs.append((tree_core.pop(), "tree"))
    pairs += on_catalogs(_core_queries(rng, core - len(pairs), used), 1)
    for index in range(wadler // 10):
        # The family's text is fixed per level; a seeded always-true
        # conjunct makes each occurrence its own plan.
        guard = _literal(rng, 0.0, 1.0, used)
        pairs.append((f"{wadler_family(index % 2)}[position() > {guard}]", "line"))
    pairs += on_catalogs(
        _templated(rng, _WADLER_TEMPLATES, wadler - wadler // 10, used), len(_WADLER_TEMPLATES)
    )
    for index in range(full // 10):
        guard = _literal(rng, 0.0, 1.0, used)
        pairs.append(
            (f"{position_heavy_query(1 + index % 2)}[position() > {guard}]", "tree")
        )
    pairs += on_catalogs(
        _templated(rng, _FULL_TEMPLATES, full - full // 10, used), len(_FULL_TEMPLATES)
    )
    rng.shuffle(pairs)
    return pairs


def serve_cold(seed: int, scale: float) -> Workload:
    rng = random.Random(f"serve-cold:{seed}")
    catalogs = [_catalog(rng, books) for books in _COLD_BOOKS]  # by size rank
    names = [f"cold{index:02d}" for index in range(len(catalogs))]
    rng.shuffle(names)
    documents = dict(sorted(zip(names, catalogs)))
    documents["tree"] = balanced_tree(6, 3)
    documents["line"] = numbered_line(200 + rng.randint(-5, 5))
    used: set = set()
    tree_core = [
        core_family(depth, with_predicates=flag)
        for depth in (2, 3, 4, 5)
        for flag in (True, False)
    ]
    rng.shuffle(tree_core)
    measured = _cold_queries(rng, op_count("serve-cold", scale), used, tree_core)
    warmup = _cold_queries(rng, COLD_WARMUP, used, tree_core)
    cells = [
        [query, names[where] if isinstance(where, int) else where]
        for query, where in warmup + measured
    ]
    spec = {
        "workload": "serve-cold",
        "transport": "serve",
        "documents": _markup(documents),
        "cells": cells,
        "setup_cells": list(range(len(warmup))),
        "ops": list(range(len(warmup), len(cells))),
    }
    return Workload("serve-cold", spec, documents)


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------

#: 24 catalogs of ~1.2k nodes; an op evaluates its queries on two of them.
BATCH_DOCUMENTS = 24
BATCH_BOOKS = 34
BATCH_WARMUP = 12
BATCH_QUERIES = 12
#: (subject, predicate pool, continuations) of the two prefix families.
_BATCH_FAMILIES = (
    (
        "//book",
        _CORE_BOOK_TESTS,
        ("/title", "/authors/author", "/chapter/heading", "/price", "/@id", "/chapter/pages"),
    ),
    (
        "//chapter",
        _CORE_CHAPTER_TESTS,
        (
            "/heading",
            "/parent::book/title",
            "/following-sibling::chapter/pages",
            "/pages",
            "/@num",
            "/preceding-sibling::chapter/heading",
        ),
    ),
)


def _core_predicate(rng: random.Random, tests: tuple) -> str:
    a, b, c = rng.sample(tests, 3)
    return rng.choice(_CORE_SHAPES).format(a=a, b=b, c=c)


def _batch_queries(rng: random.Random, index: int, used: set) -> list:
    """Twelve Core XPath queries: two ops in three are two prefixes with
    six continuations each, the third has twelve unrelated queries
    (nothing but `//` for the DAG to share, so the planner's own cost
    shows). No prefix and no query occurs twice in a run.

    Core XPath only, on purpose. With Extended Wadler and full XPath
    queries in the batches the specializer's online refinement settles,
    by what the first queries of the run happen to teach it, on one of
    two choices between mincontext and optmincontext and stays there:
    six seeds of such a mix measured 75, 74, 76, 77, 55 and 57 ops/s, the
    five repetitions of each seed agreeing within 5 %.
    `service.specialize_regret` reports that; a metric that is compared
    across seeds cannot sit on it. serve-cold carries those evaluators."""
    if index % 3 == 2:
        return _core_queries(rng, BATCH_QUERIES, used)
    queries = []
    for subject, tests, tails in _BATCH_FAMILIES:
        while True:
            head = f"{subject}[{_core_predicate(rng, tests)}]"
            if head not in used:
                used.add(head)
                break
        queries += [head + tail for tail in tails]
    return queries


def batch(seed: int, scale: float) -> Workload:
    rng = random.Random(f"batch:{seed}")
    documents = _named(
        "batch", [_catalog(rng, BATCH_BOOKS, jitter=2) for _ in range(BATCH_DOCUMENTS)]
    )
    names = list(documents)
    used: set = set()

    def ops(count: int, offset: int) -> list:
        made = []
        for index in range(offset, offset + count):
            # Deal the documents out two at a time from a seeded order, so
            # every document is used equally often.
            pair = index % (BATCH_DOCUMENTS // 2)
            if pair == 0:
                rng.shuffle(names)
            made.append(
                {
                    "queries": _batch_queries(rng, index, used),
                    "docs": names[2 * pair : 2 * pair + 2],
                    "shared": index % 3 != 2,
                }
            )
        return made

    spec = {
        "workload": "batch",
        "transport": "library",
        "documents": _markup(documents),
        "setup_ops": ops(BATCH_WARMUP, 0),
        "ops": ops(op_count("batch", scale), BATCH_WARMUP),
    }
    return Workload("batch", spec, documents)


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

INGEST_INITIAL = 40
INGEST_PUT_SHARE = 0.25
INGEST_RECENT = 10
INGEST_RECENT_SHARE = 0.70
_INGEST_BOOKS = (28, 86)  # 1k-3k nodes
_INGEST_NODESET = (
    "//book[ref and chapter/pages]/title",
    "//chapter[preceding-sibling::chapter]/heading",
    "/catalog/book[not(ref)]/authors/author",
    "//book[authors/author/following-sibling::author]/@id",
)
_INGEST_SCALAR = (
    "count(//chapter)",
    "count(//book[@lang='de'])",
    "sum(//book[position() <= 10]/price)",
    "string(/catalog/book[last()]/title)",
)


def ingest(seed: int, scale: float) -> Workload:
    rng = random.Random(f"ingest:{seed}")
    total = op_count("ingest", scale)
    puts = round(total * INGEST_PUT_SHARE)
    low, high = _INGEST_BOOKS
    # Evenly spaced sizes in bit-reversal order, the seed swapping only
    # neighbours: what a run parses and saves does not depend on the seed,
    # and any ten consecutive puts hold small, middling and large
    # documents (opens go mostly to the ten most recent).
    def sizes(count: int) -> list:
        step = (high - low) / max(1, count - 1)
        spread = [round(low + step * position) for position in _van_der_corput(count)]
        for index in range(0, count - 1, 2):
            if rng.random() < 0.5:
                spread[index], spread[index + 1] = spread[index + 1], spread[index]
        return spread

    documents = _named("doc", [book_catalog(n) for n in sizes(INGEST_INITIAL)])
    put_documents = _named("put", [book_catalog(n) for n in sizes(puts)])
    # Puts are spread evenly through the run, the seed moving each by at
    # most two places: how many documents are stored when an open happens
    # (and so what "recent" means) barely depends on the seed.
    kinds = ["open"] * total
    for index in range(puts):
        kinds[min(total - 1, index * total // puts + rng.randint(0, 2))] = "put"
    stored = list(documents)
    pending = list(put_documents)
    ops = []
    opens = 0
    for position, kind in enumerate(kinds):
        if kind == "put":
            name = pending.pop(0)
            stored.append(name)
            ops.append({"kind": "put", "name": name})
            continue
        # Seven opens in ten go to the ten most recent puts, the rest
        # anywhere; both walk their range instead of drawing from it, so
        # the sizes opened do not depend on the seed.
        opens += 1
        if opens % 10 < round(10 * INGEST_RECENT_SHARE):
            name = stored[-1 - opens % INGEST_RECENT]
        else:
            name = stored[opens * 7 % len(stored)]
        ops.append(
            {
                "kind": "open",
                "name": name,
                # Fixed rotation, not a draw: each query is asked equally
                # often in every run.
                "queries": [
                    _INGEST_NODESET[position % len(_INGEST_NODESET)],
                    _INGEST_SCALAR[position % len(_INGEST_SCALAR)],
                ],
            }
        )
    initial = list(documents)
    documents.update(put_documents)
    spec = {
        "workload": "ingest",
        "transport": "library",
        "documents": _markup(documents),
        "node_counts": {name: len(doc.nodes) for name, doc in documents.items()},
        "initial": initial,
        # One open per query pair, so the measured phase starts with
        # every code path already imported and run once.
        "setup_ops": [
            {"kind": "open", "name": initial[index], "queries": [nodeset, scalar]}
            for index, (nodeset, scalar) in enumerate(zip(_INGEST_NODESET, _INGEST_SCALAR))
        ],
        "ops": ops,
    }
    return Workload("ingest", spec, documents)


GENERATORS = {
    "serve-hot": serve_hot,
    "serve-cold": serve_cold,
    "batch": batch,
    "ingest": ingest,
}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    return GENERATORS[name](seed, scale)

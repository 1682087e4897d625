"""The paper's counters, pinned: MINCONTEXT / OPTMINCONTEXT table accounting.

Theorem 7's space measure (``peak_table_cells``), its loop count
(``mincontext_contexts_evaluated``) and the table / relation / propagation
counters are facts about the *algorithm*, not about how a context-value
table is stored. This suite runs both table evaluators under
``stats.collect()`` on a seeded grid — the paper's running example and
Example 9, the three benchmark families, and ~30 bibliography queries
(``id()``, ``sum``/``count``, filter-primary paths, node-set = node-set,
unions of bound node-set variables) — on documents as built (string
columns are lists) and as a store loads them from a snapshot (string
columns are :class:`~repro.xml.columns.StringTable` objects), and asserts the six counters against
``golden/table_counters.json``. The five paper counters are the values of
the object-based evaluators this suite was first committed against;
``operator_applications`` (one ``F[[Op]]`` per compound node per context)
and the cells of the end-to-end benchmark's template shapes were added
from the pre-plane interpreter of the commit before the evaluators
compiled their context loops. ``mincontext_contexts_evaluated`` and
``mincontext_relation_cells`` are this tree's: MINCONTEXT runs a
one-origin path relation as a set sweep and ``//t`` as one descendant
step, and no longer counts the ``descendant-or-self::node()`` contexts
and relation cells those skip; the other four columns did not move. A
representation change that moves any of them changed the algorithm.
Regenerate with ``PYTHONPATH=src python tests/test_table_counters_golden.py``
and check that only the columns the change means to move did.
"""

import json
import pathlib
import sys

import pytest

from repro import stats
from repro.engine import XPathEngine
from repro.workloads.documents import (
    balanced_tree,
    book_catalog,
    numbered_line,
    running_example_document,
)
from repro.workloads.queries import (
    core_family,
    example9_query,
    position_heavy_query,
    running_example_query,
    wadler_family,
)
from repro.xml.columns import StringTable
from repro.xml.snapshot import decode_stored, encode_snapshot

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "table_counters.json"

COUNTERS = (
    "peak_table_cells",
    "mincontext_contexts_evaluated",
    "mincontext_table_rows",
    "mincontext_relation_cells",
    "bottomup_propagation_steps",
    "operator_applications",
)

TABLE_ALGORITHMS = ("mincontext", "optmincontext")

DOCUMENTS = {
    "running": running_example_document,
    "line": lambda: numbered_line(40),
    "tree": lambda: balanced_tree(5, 3),
    "catalog": lambda: book_catalog(10),
}

#: The paper's examples and the benchmark families: every document.
FAMILY_QUERIES = (
    running_example_query(),
    example9_query(),
    wadler_family(0),
    wadler_family(2),
    position_heavy_query(1),
    position_heavy_query(2),
    core_family(2),
    core_family(3, with_predicates=False),
)

#: ``line`` only: the level ``benchmarks/e2e`` alternates with level 0.
LINE_QUERIES = (wadler_family(1),)

#: The bibliography vocabulary: ``catalog`` only.
CATALOG_QUERIES = (
    "count(//chapter)",
    "count(//book[@lang='de'])",
    "sum(//book[position() <= 3]/price)",
    "sum(//book[price > 40]/price) div count(//book)",
    "//book[price > 50]/title",
    "//book[@year >= 2000 and price < 60]/chapter[@num = 2]/heading",
    "//chapter[pages > 20][position() = 2]/heading",
    "//book[position() > last() - 3]/chapter[last()]/pages",
    "/catalog/book[price <= 40 or @lang = 'de']/authors/author[1]",
    "//chapter[pages < 30 and position() != last()]/pages",
    "//book[position() mod 3 = 1 and price > 20]/title",
    "//book[count(chapter[pages > 15]) >= 2]/title",
    "id(//book[price > 30]/ref)/title",
    "id('bk3')/chapter/heading",
    "id('bk2 bk4')[2]/title",
    "count(//book[authors/author = 'Author 3' and price > 10])",
    "//book[count(preceding-sibling::book[@lang = 'de']) < 2]/title",
    "//book[position() > count(chapter[pages > 15])]/@id",
    "(//book)[2]/title",
    "(//chapter)[position() > 3][last()]/heading",
    "(//book | //chapter)[@id][5]",
    "count(//book | //chapter/heading)",
    "//book[ref = preceding-sibling::book/@id]/title",
    "//book[authors/author = following-sibling::book/authors/author]/@id",
    "//chapter[pages + 1 > 30]/ancestor::book/title",
    "//book[not(ref)] | //book[last()]/ref",
    "//book[string-length(title) > 7]/authors/author[last()]",
    "string(//book[3]/title)",
    "name(//chapter[2]/..)",
    "//pages[../preceding-sibling::chapter/pages > .]",
    "//text()[. = 'Chapter 2']/parent::*/following-sibling::pages",
    "boolean(//book[@lang='de']/following::book[price < 30])",
    "-sum(//pages) mod 7",
    # Admissible targets exist (numeric prices), none of them is a title:
    # the propagation dies in its first inverse step.
    "//book[title > 20]/@id",
    # The two template shapes of ``benchmarks/e2e/workloads.py`` not
    # already above (the other eleven are, with other literals).
    "//book[position() mod 7 = 3 and price > 20]/title",
    "//book[position() > count(chapter[pages > 15]) * 9]/@id",
)

#: Node-set variables (``catalog`` only): ``$a`` and ``$b`` are bound to
#: overlapping runs of books. A union of constants has an empty ``Relev``.
VARIABLE_QUERIES = (
    "count($a | $b)",
    "//book[count($a | $b) > 1]/title",
    "sum(($a | $b)/price)",
    "count(($a | $b | $a)[price > 20]/chapter)",
    "//book[count(. | $a) = count($a)]/@id",
    "//book[$b/price > price]/title",
)

GRID = tuple(
    [(name, query) for name in DOCUMENTS for query in FAMILY_QUERIES]
    + [("line", query) for query in LINE_QUERIES]
    + [("catalog", query) for query in CATALOG_QUERIES + VARIABLE_QUERIES]
)


def grid_key(document_name: str, query: str, algorithm: str) -> str:
    return f"{document_name} | {algorithm} | {query}"


def bindings(document) -> dict:
    books = XPathEngine(document).evaluate("//book", algorithm="topdown")
    return {"a": books[:2], "b": books[1:4]}


def measure(document, query: str, algorithm: str, variables: dict) -> list[int]:
    """The six counters of one evaluation, in :data:`COUNTERS` order."""
    engine = XPathEngine(document, variables=variables)
    compiled = engine.compile(query)
    with stats.collect() as collected:
        engine.evaluate(compiled, algorithm=algorithm)
    snapshot = collected.snapshot()
    return [snapshot.get(name, 0) for name in COUNTERS]


def measure_grid(documents: dict) -> dict[str, list[int]]:
    variables = {name: bindings(document) for name, document in documents.items()}
    return {
        grid_key(name, query, algorithm): measure(
            documents[name], query, algorithm, variables[name]
        )
        for name, query in GRID
        for algorithm in TABLE_ALGORITHMS
    }


def _eager_documents() -> dict:
    """As built or parsed: list-backed string columns."""
    documents = {name: build() for name, build in DOCUMENTS.items()}
    assert all(type(d.columns.names) is list for d in documents.values())
    return documents


def _lazy_documents() -> dict:
    """As a store loads them: :class:`StringTable` string columns."""
    documents = {
        name: decode_stored(encode_snapshot(build(), name), name)
        for name, build in DOCUMENTS.items()
    }
    assert all(type(d.columns.names) is StringTable for d in documents.values())
    return documents


@pytest.mark.parametrize(
    "build_documents", [_eager_documents, _lazy_documents], ids=["eager", "lazy"]
)
def test_table_counters_match_the_committed_literal(build_documents):
    golden = json.loads(GOLDEN_PATH.read_text())
    measured = measure_grid(build_documents())
    assert measured.keys() == golden.keys()
    moved = {
        key: dict(zip(COUNTERS, zip(golden[key], measured[key])))
        for key in golden
        if measured[key] != golden[key]
    }
    assert not moved, f"(golden, measured) per counter: {moved}"


if __name__ == "__main__":
    cells = sorted(measure_grid(_eager_documents()).items())
    lines = [f"{json.dumps(key)}: {json.dumps(cell)}" for key, cell in cells]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)

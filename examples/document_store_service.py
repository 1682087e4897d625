"""A tiny query service over a persistent document store.

Demonstrates the paper's §7 outlook ("XPath processors that query XML
documents stored in a database") end to end with this library's
substrate: documents are ingested once into a :class:`DocumentStore`
(one snapshot file each under ``<path>.d/``); a service loads them on demand, keeps per-document engines with
compiled-query caches, answers point queries, and uses the engine's
``table()`` API (the context-value-table principle as a feature) for
bulk per-node classification.

Run:  python examples/document_store_service.py [store-path]
"""

import sys
import tempfile
import pathlib

from repro import XPathEngine
from repro.xml.statistics import document_statistics
from repro.xml.store import DocumentStore
from repro.workloads.documents import book_catalog, running_example_document


class QueryService:
    """Loads documents from a store lazily; caches engines and queries."""

    def __init__(self, store: DocumentStore):
        self.store = store
        self._engines: dict[str, XPathEngine] = {}

    def engine(self, name: str) -> XPathEngine:
        if name not in self._engines:
            document = self.store.load(name)
            document.validate()  # integrity check after deserialization
            self._engines[name] = XPathEngine(document, optimize=True)
        return self._engines[name]

    def query(self, name: str, xpath: str):
        return self.engine(name).evaluate(xpath)

    def classify_nodes(self, name: str, predicate_query: str):
        """Bulk classification: predicate value for *every* node at once
        via the context-value-table API — one shared evaluation instead
        of |dom| independent ones."""
        engine = self.engine(name)
        return engine.table(predicate_query)


def main() -> None:
    if len(sys.argv) > 1:
        store_path = pathlib.Path(sys.argv[1])
    else:
        store_path = pathlib.Path(tempfile.mkdtemp()) / "documents.json"
    store = DocumentStore(store_path)

    # --- ingestion ----------------------------------------------------
    print(f"store: {store_path}")
    store.save("paper-example", running_example_document())
    store.save("catalog", book_catalog(books=20))
    print("ingested:", ", ".join(store.names()))

    service = QueryService(store)

    # --- shape statistics ----------------------------------------------
    for name in store.names():
        stats = document_statistics(service.engine(name).document)
        print(f"\n[{name}] {stats.summary()}")

    # --- point queries ---------------------------------------------------
    print("\npoint queries:")
    result = service.query("paper-example", "//d[. = 100]")
    print("  paper-example //d[. = 100] ->", [n.xml_id for n in result])
    result = service.query("catalog", "count(//book[@lang = 'de'])")
    print("  catalog german books ->", result)
    result = service.query("catalog", "//book[price > 80]/title")
    print("  catalog expensive ->", [n.string_value for n in result])

    # --- bulk classification via the table API ----------------------------
    print("\nbulk classification (one context-value table, all nodes):")
    table = service.classify_nodes("catalog", "boolean(self::book[price > 80])")
    expensive = [node for node, is_hit in table.items() if is_hit]
    print(
        "  nodes classified:", len(table),
        "| expensive books:", sorted(n.xml_id for n in expensive),
    )

    # --- persistence across restarts -----------------------------------
    reopened = DocumentStore(store_path)
    engine = XPathEngine(reopened.load("paper-example"))
    answer = engine.evaluate(
        "/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]"
    )
    print("\nafter reopen, the paper's running example still answers:",
          sorted(n.xml_id for n in answer))


if __name__ == "__main__":
    main()

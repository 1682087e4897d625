"""repro — a reproduction of Gottlob, Koch & Pichler,
"XPath Query Evaluation: Improving Time and Space Efficiency" (ICDE 2003).

A complete, from-scratch XPath 1.0 query evaluation stack:

* an XML substrate (parser, data model, serializer) — :mod:`repro.xml`;
* linear-time axis set functions and inverses — :mod:`repro.axes`;
* a full XPath 1.0 front end with the paper's normalizations and the
  ``Relev`` analysis — :mod:`repro.xpath`;
* five evaluation algorithms, from the exponential "contemporary engine"
  baseline to the paper's MINCONTEXT and OPTMINCONTEXT — :mod:`repro.core`;
* an engine facade with fragment-aware dispatch — :mod:`repro.engine`;
* a service layer with a compiled-plan LRU cache and a batch evaluation
  API — :mod:`repro.service`.

Quickstart (one document, one query at a time)::

    from repro import XPathEngine, parse_document

    doc = parse_document("<lib><book year='2001'/><book year='2003'/></lib>")
    engine = XPathEngine(doc)
    recent = engine.evaluate("//book[@year > 2002]")

Serving workloads — the service layer
-------------------------------------

The paper's complexity theorems bound *evaluation* cost; the per-call
frontend pipeline (parse → normalize → rewrite → relevance → fragment
dispatch) is pure overhead on repeated queries. :class:`QueryService`
amortizes it: each distinct ``(query, options)`` pair is compiled once
into a document-independent :class:`LogicalPlan` held in an LRU cache,
and ``auto`` runs the paper's fragment dispatch — Theorem 13's
linear-time sweep on Core XPath, OPTMINCONTEXT with Corollary 11's
bounds elsewhere — on every document alike. Each document gets a
session that memoizes ``(plan, context) → result``. The batch API
evaluates whole workloads in one call::

    from repro import QueryService, parse_document

    service = QueryService(plan_capacity=128)
    documents = [parse_document(source) for source in sources]
    batch = service.evaluate_many(
        ["//book/title", "//book[price > 20]", "//book/title"],  # dupes are free
        documents,
    )
    batch.value(0, 1)          # document 0, second query
    batch.algorithms           # resolved per-query algorithm (fragment dispatch)
    service.cache_stats()      # {'plan_cache': {...hits/misses/hit_rate...}, ...}

The same machinery backs the CLI's ``plan`` (inspect a compiled plan)
and ``batch`` (evaluate many queries × many documents, with cache
statistics) subcommands — see ``python -m repro plan --help``.

Serving — the daemon
--------------------

``repro-xpath serve`` fronts one shared :class:`QueryService` over TCP
(:mod:`repro.serve`): a ``QUERY`` is one evaluation on a worker thread,
and a ``BATCH`` steps :meth:`QueryService.batch_rows` one document row
per worker-thread hop, so batches read and fill the same plan cache and
result memo as every other request.
"""

from repro.engine import ALGORITHMS, CompiledPlan, CompiledQuery, XPathEngine
from repro.errors import (
    EvaluationError,
    FragmentViolationError,
    ReproError,
    UnboundVariableError,
    UnknownAlgorithmError,
    UnknownFunctionError,
    XMLSyntaxError,
    XPathSyntaxError,
    XPathTypeError,
)
from repro.core.context import Context
from repro.service import (
    BatchResult,
    DocumentProfile,
    DocumentSession,
    LogicalPlan,
    PlanCache,
    PlanOptions,
    QueryPlanner,
    QueryService,
    document_profile,
)
from repro.xml.builder import DocumentBuilder, element, text
from repro.xml.document import Document, Node, NodeKind
from repro.xml.parser import parse_document, parse_fragment
from repro.xml.serializer import serialize

__version__ = "1.1.0"

__all__ = [
    "ALGORITHMS",
    "BatchResult",
    "CompiledPlan",
    "CompiledQuery",
    "Context",
    "Document",
    "DocumentBuilder",
    "DocumentProfile",
    "DocumentSession",
    "EvaluationError",
    "FragmentViolationError",
    "LogicalPlan",
    "Node",
    "NodeKind",
    "PlanCache",
    "PlanOptions",
    "QueryPlanner",
    "QueryService",
    "ReproError",
    "document_profile",
    "UnboundVariableError",
    "UnknownAlgorithmError",
    "UnknownFunctionError",
    "XMLSyntaxError",
    "XPathEngine",
    "XPathSyntaxError",
    "XPathTypeError",
    "element",
    "parse_document",
    "parse_fragment",
    "serialize",
    "text",
    "__version__",
]

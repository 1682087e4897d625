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

Scaling out — sharded execution and the scheduler seam
------------------------------------------------------

Batches shard by document: ``evaluate_many(..., workers=4,
shard_by="size-balanced", backend="process")`` partitions the documents
across workers (round-robin, or balanced on node count), evaluates the
shards concurrently, and merges the per-shard results with exact
cache-statistics aggregation. The *backend* names a pluggable
:class:`~repro.service.scheduler.Scheduler` — ``serial`` (reference),
``thread`` (in-process overlap), ``process`` (true parallelism;
documents are rebuilt per worker from serialized markup and node-set
results rebound to the caller's trees), or ``async`` (a coroutine
scheduler). The CLI exposes the same knobs: ``repro-xpath batch ...
--workers 4 --shard-by size-balanced --backend process``. See
:mod:`repro.service.scheduler`.

Serving from an event loop — the async front end
------------------------------------------------

:class:`QueryService` is thread-safe, and :class:`AsyncQueryService`
puts coroutines in front of it: ``await evaluate(...)``, ``await
evaluate_many(..., workers=4)``, and ``stream_many(...)`` — an async
iterator that yields each (query, document) result as its shard
completes, so consumers see first results while the slowest shard is
still evaluating. ``repro-xpath batch ... --backend async --stream`` is
the CLI form. See :mod:`repro.service.async_service`.
"""

from repro.engine import ALGORITHMS, CompiledPlan, CompiledQuery, XPathEngine
from repro.service import (
    DocumentProfile,
    LogicalPlan,
    ShardTimingHistory,
    document_profile,
)
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
    AsyncQueryService,
    BatchResult,
    BatchStream,
    DocumentSession,
    PlanCache,
    PlanOptions,
    QueryPlanner,
    QueryService,
    ShardedExecutor,
    StreamItem,
)
from repro.xml.builder import DocumentBuilder, element, text
from repro.xml.document import Document, Node, NodeKind
from repro.xml.parser import parse_document, parse_fragment
from repro.xml.serializer import serialize

__version__ = "1.1.0"

__all__ = [
    "ALGORITHMS",
    "AsyncQueryService",
    "BatchResult",
    "BatchStream",
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
    "ShardTimingHistory",
    "ShardedExecutor",
    "StreamItem",
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

"""Command-line XPath tool: ``repro-xpath`` / ``python -m repro``.

Six modes:

* the default (legacy) mode evaluates one query against one document;
* ``repro-xpath plan QUERY`` compiles a query and prints its *logical*
  plan — normalized form, fragment classification, and the algorithm the
  ``auto`` dispatch selects — without needing a document.
  ``plan --explain`` additionally names the fragment result behind that
  choice (Theorem 13 for Core XPath, Corollary 11 elsewhere); give
  ``plan`` a document via ``--xml``/``--file`` and it also prints the
  document's profile (``|dom|`` and fanout) and the cost units
  admission control prices the cell at (``|D|·|Q|`` plus the
  positional-loop width).
  ``plan --explain-batch QUERY...`` accepts several queries and prints
  the *batch-shared step DAG* the service would build for them — which
  step prefixes unify, which plans consume them, and which plans stay
  independent (and why);
* ``repro-xpath batch`` evaluates many queries against many documents
  through :class:`repro.service.QueryService`, sharing the compiled-plan
  cache and per-document caches, and can report cache statistics.
  Batch-step sharing (the shared-prefix DAG) is on by default
  for ``auto`` batches; ``--no-share`` reproduces fully independent
  per-cell evaluation byte-identically, stats included.
  ``--snapshot-store PATH`` pulls documents from a
  :class:`repro.xml.store.DocumentStore` instead of (or alongside)
  ``--xml``/``--file`` — snapshot-backed documents skip the XML parse
  and arrive with their node index read from the file;
* ``repro-xpath store {snapshot,list}`` manages a document store:
  ``snapshot`` parses a document and persists it as one binary snapshot
  file (``RXSNAP04``) under ``PATH.d/``, and ``list`` prints what the
  directory holds;
* ``repro-xpath serve`` runs the long-lived serving daemon
  (:mod:`repro.serve`): line-delimited JSON over TCP, per-client
  quotas, cost-priced admission control, per-query deadlines, and
  graceful drain on SIGTERM. ``repro-xpath client`` is the matching
  one-shot client: register documents, run queries, print results —
  with typed server errors mapped onto the same exit-code families.

Examples::

    repro-xpath --file doc.xml "//book[price > 20]/title"
    repro-xpath --xml "<a><b/></a>" --explain "/child::a/child::b"
    repro-xpath --file doc.xml --compare "//a[position() = last()]"
    repro-xpath plan "//a[position() = last()]"
    repro-xpath plan --explain --file doc.xml "//book[price > 20]/title"
    repro-xpath batch --xml "<a><b/></a>" --xml "<a/>" -q "//b" -q "count(//b)" --stats
    repro-xpath store snapshot --store cat --name books --file books.xml
    repro-xpath batch --snapshot-store cat -q "//book/title"

``--explain`` prints the normalized parse tree with static types and
``Relev`` sets plus fragment classification; ``--compare`` runs all
polynomial algorithms (and, for small inputs, the naive baseline) and
reports agreement — a one-shot differential check.

Exit codes are distinct per error family, so scripts can tell a bad
query from a bad document from a bad invocation:

* 0 — success (and, for ``--compare``, agreement);
* 1 — any other library error (:data:`EXIT_ERROR`);
* 2 — bad invocation, unknown algorithm, or ``--compare`` disagreement
  (:data:`EXIT_USAGE`);
* 3 — unparsable/ill-typed query, including unbound variables
  (:data:`EXIT_QUERY`);
* 4 — malformed XML document, or an unregistered document name over the
  serving protocol (:data:`EXIT_DOCUMENT`);
* 5 — fragment violation, e.g. ``corexpath`` forced onto a query outside
  Core XPath (:data:`EXIT_FRAGMENT`);
* 6 — document-store failure, including corrupt snapshot files
  (:data:`EXIT_STORE`);
* 7 — refused by the serving daemon: admission overload, rate limit,
  quota, or a draining server (:data:`EXIT_OVERLOAD`);
* 8 — query deadline exceeded (:data:`EXIT_DEADLINE`);
* 9 — serving protocol or transport failure (:data:`EXIT_SERVE`).

One table, ``_CODE_EXITS``, maps every stable protocol code
(:data:`repro.errors.PROTOCOL_CODES`) onto an exit code, and
``error_exit_code(error)`` is ``_CODE_EXITS[error_code(error)]`` — a
query that fails remotely exits exactly as it would have locally, by
construction.

Every mode reads, renders and fails one way: :func:`_read` is the one
file read and :func:`_document` the one document loader; a result is
printed as the payload the daemon would send
(:func:`repro.serve.protocol.render_value`) turned into text by
:func:`_render_response_payload`, so local and remote output are the
same bytes; and a subcommand raises instead of catching — :func:`main`
maps ``OSError`` to 1 and a library error to its family, once.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.engine import ALGORITHMS, XPathEngine
from repro.errors import ReproError, error_code
from repro.serve.protocol import OUTPUT_STYLES, render_value
from repro.service import (
    QueryService,
    compile_plan,
    document_profile,
    resolve_algorithm,
)
from repro.service.cost import cost_units
from repro.stats import axis_kernel_stats, store_stats
from repro.xml.parser import parse_document
from repro.xml.snapshot import SNAPSHOT_VERSION
from repro.xpath.explain import explain_text
from repro.xpath.unparse import dump_tree, unparse


#: Exit codes, one per error family (see the module docstring).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_QUERY = 3
EXIT_DOCUMENT = 4
EXIT_FRAGMENT = 5
EXIT_STORE = 6
EXIT_OVERLOAD = 7
EXIT_DEADLINE = 8
EXIT_SERVE = 9

#: Every stable protocol code (:data:`repro.errors.PROTOCOL_CODES`)
#: mapped onto an exit code: the one table, for local failures and for
#: failures relayed by the client alike.
_CODE_EXITS = {
    "QUERY_SYNTAX": EXIT_QUERY,
    "UNKNOWN_FUNCTION": EXIT_QUERY,
    "WRONG_ARITY": EXIT_QUERY,
    "QUERY_TYPE": EXIT_QUERY,
    "UNBOUND_VARIABLE": EXIT_QUERY,
    "XML_SYNTAX": EXIT_DOCUMENT,
    "UNKNOWN_DOCUMENT": EXIT_DOCUMENT,
    "EVALUATION": EXIT_ERROR,
    "INTERNAL": EXIT_ERROR,
    "ERROR": EXIT_ERROR,
    "SNAPSHOT_CORRUPT": EXIT_STORE,
    "DOCUMENT_STORE": EXIT_STORE,
    "FRAGMENT_VIOLATION": EXIT_FRAGMENT,
    "UNKNOWN_ALGORITHM": EXIT_USAGE,
    "UNKNOWN_VERB": EXIT_USAGE,
    "DEADLINE": EXIT_DEADLINE,
    "RATE_LIMITED": EXIT_OVERLOAD,
    "OVERLOAD": EXIT_OVERLOAD,
    "QUOTA": EXIT_OVERLOAD,
    "SHUTTING_DOWN": EXIT_OVERLOAD,
    "PROTOCOL": EXIT_SERVE,
    "SERVE": EXIT_SERVE,
    "FRAME_TOO_LARGE": EXIT_SERVE,
}


def error_exit_code(error: ReproError) -> int:
    """The exit code for a library error: its stable protocol code
    (:func:`repro.errors.error_code`, which keeps a relayed
    :class:`~repro.errors.RemoteError`'s own) through
    :data:`_CODE_EXITS`, :data:`EXIT_ERROR` for anything unclassified."""
    return _CODE_EXITS.get(error_code(error), EXIT_ERROR)


def _fail(message: str, code: int) -> int:
    """Print a one-line error and return the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    """The one file read of the CLI: a UTF-8 text file's contents."""
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _document(path: str | None, inline: str | None, strip_whitespace: bool = False):
    """The one document loader: parse ``--file PATH`` when given, else
    the ``--xml`` string."""
    source = _read(path) if path else inline
    return parse_document(source, keep_whitespace_text=not strip_whitespace)


def _render_response_payload(payload: dict) -> str:
    """A result payload (:func:`~repro.serve.protocol.render_value`, the
    daemon's ``QUERY`` reply) as the text every mode prints."""
    if payload.get("kind") == "node-set":
        items = payload.get("items", [])
        return "\n".join(items) if items else "(empty node-set)"
    if payload.get("kind") == "boolean":
        return "true" if payload.get("value") else "false"
    return str(payload.get("value"))


def _render(value, style: str) -> str:
    """A local result printed exactly as the daemon's reply would be."""
    return _render_response_payload(render_value(value, style))


#: The flags several modes share, each declared once.
_SHARED_FLAGS = {
    "algorithm": (
        ("--algorithm", "-a"),
        dict(
            choices=ALGORITHMS,
            default="auto",
            help="evaluation algorithm (default: auto fragment dispatch)",
        ),
    ),
    "output": (
        ("--output", "-o"),
        dict(
            choices=OUTPUT_STYLES,
            default="path",
            help="node rendering: debug path, serialized XML, or string value",
        ),
    ),
    "strip_whitespace": (
        ("--strip-whitespace",),
        dict(action="store_true", help="drop whitespace-only text nodes while parsing"),
    ),
}


def _add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flags, options = _SHARED_FLAGS[name]
        parser.add_argument(*flags, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath",
        description="Evaluate an XPath 1.0 query with the Gottlob/Koch/Pichler algorithms.",
        epilog=(
            "Subcommands: 'repro-xpath plan QUERY' compiles and prints a query "
            "plan; 'repro-xpath batch ...' evaluates many queries x many "
            "documents through the plan cache; 'repro-xpath store ...' manages "
            "a binary-snapshot document store; 'repro-xpath serve' runs the "
            "serving daemon and 'repro-xpath client' talks to it (each has "
            "its own --help). They are recognized only as the first argument "
            "— to evaluate a query literally named like one, put an option "
            "first (repro-xpath --xml '<r/>' plan) or write it as child::plan."
        ),
    )
    parser.add_argument("query", help="XPath 1.0 query (abbreviated syntax accepted)")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", "-f", help="XML document file")
    source.add_argument("--xml", help="inline XML document string")
    _add_shared(parser, "algorithm", "output", "strip_whitespace")
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the normalized parse tree, Relev sets, fragment classification, "
        "and the per-subexpression evaluation plan",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run every algorithm and check they agree",
    )
    return parser


# ----------------------------------------------------------------------
# plan subcommand
# ----------------------------------------------------------------------


def build_plan_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath plan",
        description="Compile a query and print its logical plan (no document "
        "needed). --explain adds the fragment reason for the evaluator auto "
        "runs and, given a document, its |dom| and fanout and the cost units "
        "admission prices the cell at (|D|*|Q| plus the positional-loop width). "
        "--explain-batch accepts several queries and prints the "
        "batch-shared step DAG the service would build.",
    )
    parser.add_argument(
        "query",
        nargs="+",
        help="XPath 1.0 query to compile (several only with --explain-batch)",
    )
    parser.add_argument(
        "--tree",
        action="store_true",
        help="also print the normalized parse tree and per-subexpression strategies",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print why auto runs the evaluator it does (Theorem 13 or "
        "Corollary 11) and, given a document, its |dom| and fanout and the "
        "cost units admission prices",
    )
    parser.add_argument(
        "--explain-batch",
        action="store_true",
        help="print the batch-shared step DAG for the given queries: the "
        "materialized step prefixes, their parent links and consumers, and "
        "each plan's residual (or why it evaluates independently)",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--file", "-f", help="XML document to price the query on (implies --explain)"
    )
    source.add_argument(
        "--xml", help="inline XML document to price the query on (implies --explain)"
    )
    return parser


def plan_main(argv: list[str]) -> int:
    args = build_plan_parser().parse_args(argv)
    queries = args.query
    if len(queries) > 1 and not args.explain_batch:
        return _fail(
            "multiple queries require --explain-batch "
            "(plan prints one query's logical plan)",
            EXIT_USAGE,
        )
    plans = []
    for query in queries:
        try:
            plans.append(compile_plan(query))
        except ReproError as error:
            message = (
                str(error) if len(queries) == 1 else f"query {query!r}: {error}"
            )
            return _fail(message, error_exit_code(error))
    if args.explain_batch:
        from repro.service.batchplan import build_batch_plan

        print(build_batch_plan(plans).describe())
        return 0
    profile = None
    if args.xml or args.file:
        profile = document_profile(_document(args.file, args.xml))
    # Giving a document *is* asking what runs on it — never ignore it.
    _print_plan(plans[0], args.explain or profile is not None, args.tree, profile)
    return 0


def _print_plan(plan, explain: bool, tree: bool, profile=None) -> None:
    """The plan block ``plan`` and ``--explain`` print: normalized query,
    result type, fragment verdicts, bottom-up paths and the evaluator
    ``auto`` runs; ``explain`` names the fragment result behind that
    choice, ``profile`` adds the document's profile and admission's cost
    units, and ``tree`` the parse tree and per-subexpression plan."""
    core = "yes" if plan.is_core_xpath else f"no ({plan.core_violation})"
    wadler = "yes" if plan.is_extended_wadler else f"no ({plan.wadler_violation})"
    print("query:           ", plan.source)
    print("normalized query:", unparse(plan.ast))
    print("result type:     ", plan.result_type)
    print("Core XPath:      ", core)
    print("Extended Wadler: ", wadler)
    print("bottom-up paths: ", plan.bottomup_path_count)
    reason = "fragment dispatch"
    if explain and plan.is_core_xpath:
        reason = "Theorem 13: Core XPath runs as linear-time set sweeps"
    elif explain:
        reason = (
            "Corollary 11: outside Core XPath, OPTMINCONTEXT bounds each "
            "subexpression by its fragment"
        )
    algorithm = plan.best_algorithm()
    print("algorithm:       ", algorithm, f"({reason})")
    if profile is not None:
        print("profile:         ", profile.describe())
        print("cost units:      ", f"{cost_units(plan, profile):.3g}")
    if tree:
        print("parse tree:")
        print(dump_tree(plan.ast, indent="    "))
        print("evaluation plan (per-subexpression strategy, Corollary 11):")
        print(explain_text(plan.ast))


# ----------------------------------------------------------------------
# batch subcommand
# ----------------------------------------------------------------------


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath batch",
        description="Evaluate many queries against many documents through the "
        "plan-caching query service.",
    )
    parser.add_argument(
        "--query",
        "-q",
        action="append",
        default=[],
        metavar="QUERY",
        help="a query to evaluate (repeatable)",
    )
    parser.add_argument(
        "--queries-file",
        help="file with one query per line (blank lines and # comments skipped)",
    )
    parser.add_argument(
        "--xml",
        action="append",
        default=[],
        metavar="XML",
        help="an inline XML document (repeatable)",
    )
    parser.add_argument(
        "--file",
        "-f",
        action="append",
        default=[],
        metavar="PATH",
        help="an XML document file (repeatable)",
    )
    parser.add_argument(
        "--snapshot-store",
        metavar="PATH",
        help="a DocumentStore path (documents live in PATH.d/) to load "
        "documents from — they skip the XML parse and arrive with their "
        "node index read from the file",
    )
    parser.add_argument(
        "--doc",
        action="append",
        default=[],
        metavar="NAME",
        help="with --snapshot-store: load only this named document "
        "(repeatable; default: every document in the store)",
    )
    _add_shared(parser, "algorithm", "output", "strip_whitespace")
    parser.add_argument(
        "--share",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="unify common step prefixes across the batch's queries and "
        "evaluate each shared (prefix, document) node-set once (default; "
        "applies to --algorithm auto); --no-share reproduces fully "
        "independent per-cell evaluation byte-identically, stats included",
    )
    parser.add_argument(
        "--plan-capacity",
        type=int,
        default=256,
        help="LRU capacity of the compiled-plan cache (default: 256)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print plan-cache, result-cache, holds-memo, batch-plan, and "
        "axis-kernel statistics after the batch",
    )
    return parser


def _load_batch_queries(args) -> list[str]:
    queries = list(args.query)
    if args.queries_file:
        for line in _read(args.queries_file).split("\n"):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                queries.append(stripped)
    return queries


def _print_batch_stats(batch, from_store: bool) -> None:
    """The --stats footer; ``from_store`` adds the (process-wide)
    document-store counters."""
    for label, counts in (
        ("plan cache:   ", batch.plan_stats),
        ("result cache: ", batch.result_stats),
        ("holds memo:   ", batch.holds_stats),
        ("step memo:    ", batch.step_stats),
    ):
        print(
            f"{label}hits={counts['hits']} misses={counts['misses']} "
            f"evictions={counts['evictions']} hit rate={counts['hit_rate']:.1%}",
            file=sys.stderr,
        )
    batch_plan = batch.batch_plan
    if batch_plan:
        print(
            "batch plan:   "
            f"prefixes={batch_plan['prefix_nodes']} "
            f"shared plans={batch_plan['shared_plans']}/"
            f"{batch_plan['sharable_plans']} "
            f"shared evals={batch_plan['shared_evaluations']} "
            f"memo hits={batch_plan['memo_hits']} "
            f"fallbacks={batch_plan['fallback_cells']} "
            f"steps saved={batch_plan['steps_saved']}",
            file=sys.stderr,
        )
    if from_store:
        counters = store_stats.snapshot().items()
        print(
            "store:        " + " ".join(f"{key}={value}" for key, value in counters),
            file=sys.stderr,
        )
    kernel_stats = axis_kernel_stats.snapshot()
    print(
        "axis kernels: "
        f"fused={kernel_stats['fused_hits']} "
        f"fallback scans={kernel_stats['fallback_scans']}",
        file=sys.stderr,
    )
    print(
        "lazy decode:  "
        f"lazy documents={kernel_stats['lazy_documents']} "
        f"nodes materialized={kernel_stats['nodes_materialized']}",
        file=sys.stderr,
    )
    print(f"vector:       ops={kernel_stats['vector_ops']}", file=sys.stderr)


def batch_main(argv: list[str]) -> int:
    parser = build_batch_parser()
    args = parser.parse_args(argv)
    queries = _load_batch_queries(args)
    if not queries:
        return _fail("no queries given (use -q or --queries-file)", EXIT_USAGE)
    if not args.xml and not args.file and not args.snapshot_store:
        return _fail(
            "no documents given (use --xml, --file, or --snapshot-store)",
            EXIT_USAGE,
        )
    if args.doc and not args.snapshot_store:
        return _fail("--doc requires --snapshot-store", EXIT_USAGE)
    if args.plan_capacity < 1:
        return _fail("--plan-capacity must be >= 1", EXIT_USAGE)
    labels = []
    documents = []
    sources = [(f"xml[{index}]", None, inline) for index, inline in enumerate(args.xml)]
    sources += [(path, path, None) for path in args.file]
    for label, path, inline in sources:
        try:
            documents.append(_document(path, inline, args.strip_whitespace))
        except ReproError as error:
            return _fail(f"document {label}: {error}", error_exit_code(error))
        labels.append(label)
    if args.snapshot_store:
        from repro.xml.store import DocumentStore

        store = DocumentStore(args.snapshot_store)
        for name in args.doc if args.doc else store.names():
            documents.append(store.load(name))
            labels.append(f"store:{name}")
    # Compile every query up front so an unparsable query mid-list fails
    # with a one-line message *naming the query*. Validation uses a throwaway compile, not
    # the service's cache, so the batch's --stats still report the real
    # compile misses.
    for query in dict.fromkeys(queries):  # dedupe, keep first-error order
        try:
            resolve_algorithm(compile_plan(query), args.algorithm)
        except ReproError as error:
            return _fail(f"query {query!r}: {error}", error_exit_code(error))
    service = QueryService(plan_capacity=args.plan_capacity)
    batch = service.evaluate_many(
        queries,
        documents,
        algorithm=args.algorithm,
        share=args.share,
    )
    for doc_index, label in enumerate(labels):
        for query_index, query in enumerate(queries):
            algorithm = batch.algorithms[query_index]
            print(f"=== {label} :: {query} [{algorithm}] ===")
            print(_render(batch.value(doc_index, query_index), args.output))
    if args.stats:
        _print_batch_stats(batch, bool(args.snapshot_store))
    return 0


# ----------------------------------------------------------------------
# store subcommand
# ----------------------------------------------------------------------


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath store",
        description="Manage a binary-snapshot document store: persist parsed "
        "documents as snapshot files (one per document, in PATH.d/) that "
        "later loads (and 'batch --snapshot-store') reconstruct without "
        "re-parsing or re-indexing.",
    )
    parser.add_argument(
        "action",
        choices=("snapshot", "list"),
        help="snapshot: parse a document and persist it; list: print the "
        "stored documents (name, storage format, node count, and bytes on "
        "disk vs decoded column and partition bytes per document)",
    )
    parser.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="the store's path: documents are kept in PATH.d/ (created "
        "by the first snapshot); nothing is written at PATH itself",
    )
    parser.add_argument(
        "--name",
        help="name to store the document under (snapshot action)",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--file", "-f", help="XML document file to snapshot")
    source.add_argument("--xml", help="inline XML document string to snapshot")
    _add_shared(parser, "strip_whitespace")
    return parser


def store_main(argv: list[str]) -> int:
    args = build_store_parser().parse_args(argv)
    from repro.xml.store import DocumentStore

    store = DocumentStore(args.store)
    if args.action == "snapshot":
        if not args.name:
            return _fail("store snapshot requires --name", EXIT_USAGE)
        if not args.xml and not args.file:
            return _fail("store snapshot requires --xml or --file", EXIT_USAGE)
        document = _document(args.file, args.xml, args.strip_whitespace)
        snapshot_file = store.save_snapshot(args.name, document)
        print(f"{args.name}: {len(document.nodes)} nodes -> {snapshot_file}")
        return EXIT_OK
    for name in store.names():
        sizes = store.column_sizes(name)
        print(
            f"{name}\tsnapshot v{SNAPSHOT_VERSION}\tnodes={sizes['nodes']}\t"
            f"disk={sizes['disk_bytes']}B\t"
            f"columns={sizes['column_bytes']}B\t"
            f"partitions={sizes['partition_bytes']}B"
        )
    return EXIT_OK


# ----------------------------------------------------------------------
# serve subcommand
# ----------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath serve",
        description="Run the serving daemon: line-delimited JSON over TCP "
        "with per-client quotas, cost-priced admission control, per-query "
        "deadlines, and graceful drain on SIGTERM (see repro.serve).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8727,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    parser.add_argument(
        "--max-documents",
        type=int,
        default=64,
        help="per-client registered-document cap",
    )
    parser.add_argument(
        "--max-registered-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="per-client registered source-byte budget",
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=32,
        help="per-client concurrent-query cap",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-client sustained queries/second (default: unlimited)",
    )
    parser.add_argument(
        "--burst", type=int, default=8, help="token-bucket burst for --rate"
    )
    parser.add_argument(
        "--queue-high",
        type=int,
        default=64,
        help="in-flight depth at which admission rejects outright",
    )
    parser.add_argument(
        "--queue-degrade",
        type=int,
        default=16,
        help="in-flight depth at which admission starts degrading",
    )
    parser.add_argument(
        "--max-cost-seconds",
        type=float,
        default=5.0,
        help="admission budget for requests without their own deadline",
    )
    parser.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline applied to requests that do not carry one",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        help="seconds in-flight work gets to finish after SIGTERM",
    )
    return parser


def serve_main(argv: list[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    from repro.serve.admission import AdmissionController
    from repro.serve.daemon import XPathDaemon, run_daemon
    from repro.serve.quotas import ClientQuota

    if args.queue_degrade > args.queue_high:
        return _fail(
            "--queue-degrade must not exceed --queue-high", EXIT_USAGE
        )
    service = QueryService()
    daemon = XPathDaemon(
        service=service,
        host=args.host,
        port=args.port,
        quota=ClientQuota(
            max_documents=args.max_documents,
            max_registered_bytes=args.max_registered_bytes,
            max_in_flight=args.max_in_flight,
            rate=args.rate,
            burst=args.burst,
        ),
        admission=AdmissionController(
            service,
            queue_high=args.queue_high,
            queue_degrade=args.queue_degrade,
            max_cost_seconds=args.max_cost_seconds,
        ),
        default_deadline_seconds=(
            None
            if args.default_deadline_ms is None
            else args.default_deadline_ms / 1000.0
        ),
        drain_grace=args.drain_grace,
    )

    def ready(started: XPathDaemon) -> None:
        print(
            f"repro-xpath serve: listening on {started.host}:{started.port}",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(run_daemon(daemon, ready=ready))
    except KeyboardInterrupt:
        pass
    except OSError as error:  # the bind
        return _fail(str(error), EXIT_SERVE)
    return EXIT_OK


# ----------------------------------------------------------------------
# client subcommand
# ----------------------------------------------------------------------


def build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath client",
        description="One-shot client for the serving daemon: register "
        "documents, run queries, print results. Typed server errors map "
        "onto the same exit-code families as local failures.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="daemon address")
    parser.add_argument("--port", type=int, required=True, help="daemon port")
    parser.add_argument(
        "--client",
        help="client identity (quotas and registrations are per identity; "
        "default: one identity per connection)",
    )
    parser.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register an XML file under NAME before querying (repeatable)",
    )
    parser.add_argument(
        "--register-xml",
        action="append",
        default=[],
        metavar="NAME=XML",
        help="register an inline XML string under NAME (repeatable)",
    )
    parser.add_argument(
        "--query",
        "-q",
        action="append",
        default=[],
        metavar="QUERY",
        help="a query to evaluate (repeatable)",
    )
    parser.add_argument(
        "--doc",
        action="append",
        default=[],
        metavar="NAME",
        help="a registered document to query (repeatable; default: every "
        "document registered by this invocation)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-query deadline in milliseconds",
    )
    _add_shared(parser, "output")
    parser.add_argument(
        "--no-retry",
        action="store_true",
        help="surface OVERLOAD/RATE_LIMITED refusals immediately instead "
        "of honoring the server's retry_after backoff hints",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="socket timeout in seconds"
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the daemon's per-client and global counters afterwards",
    )
    return parser


def client_main(argv: list[str]) -> int:
    args = build_client_parser().parse_args(argv)
    import json

    from repro.serve.client import ServeClient

    registrations = []
    for spec, inline in [(s, False) for s in args.register] + [
        (s, True) for s in args.register_xml
    ]:
        name, separator, value = spec.partition("=")
        if not separator or not name:
            return _fail(
                f"bad registration {spec!r} (expected NAME=PATH or NAME=XML)",
                EXIT_USAGE,
            )
        registrations.append((name, value, inline))
    if not args.query and not registrations and not args.stats:
        return _fail(
            "nothing to do (use --register/--register-xml, -q, or --stats)",
            EXIT_USAGE,
        )
    # Every file is read before connecting: a missing one is a local
    # failure, not a transport one.
    sources = [
        (name, value if inline else _read(value)) for name, value, inline in registrations
    ]
    try:
        with ServeClient(
            host=args.host,
            port=args.port,
            client=args.client,
            timeout=args.timeout,
            max_retries=0 if args.no_retry else 4,
        ) as client:
            for name, source in sources:
                client.register(name, source)
            doc_names = args.doc if args.doc else [name for name, _ in sources]
            if args.query and not doc_names:
                return _fail(
                    "no documents to query (use --register or --doc)",
                    EXIT_USAGE,
                )
            for doc_name in doc_names:
                for query in args.query:
                    response = client.query(
                        query,
                        doc_name,
                        deadline_ms=args.deadline_ms,
                        output=args.output,
                        retry=not args.no_retry,
                    )
                    print(
                        f"=== {doc_name} :: {query} "
                        f"[{response.get('algorithm', '?')}] ==="
                    )
                    print(_render_response_payload(response))
            if args.stats:
                print(json.dumps(client.stats(), indent=2), file=sys.stderr)
    except OSError as error:  # the transport
        return _fail(str(error), EXIT_SERVE)
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def query_main(argv: list[str]) -> int:
    """The default mode: one query against one document."""
    args = build_parser().parse_args(argv)
    document = _document(args.file, args.xml, args.strip_whitespace)
    engine = XPathEngine(document)
    compiled = engine.compile(args.query)
    if args.explain:
        _print_plan(compiled, explain=True, tree=True)
        print()
    if args.compare:
        candidates = ["topdown", "mincontext", "optmincontext"]
        if len(document.nodes) <= 40:
            candidates = ["naive", "bottomup"] + candidates
        if compiled.is_core_xpath:
            candidates.append("corexpath")
        rendered = {
            name: _render(engine.evaluate(compiled, algorithm=name), args.output)
            for name in candidates
        }
        agree = len(set(rendered.values())) == 1
        for name, text in rendered.items():
            print(f"--- {name} ---")
            print(text)
        print("AGREE" if agree else "DISAGREE", file=sys.stderr)
        return 0 if agree else 2
    print(_render(engine.evaluate(compiled, algorithm=args.algorithm), args.output))
    return 0


#: Subcommands, recognized only in first position, so queries that are
#: literally "plan"/"batch"/... stay reachable: lead with any option
#: (repro-xpath --xml '<r/>' plan) or spell it as child::plan.
_SUBCOMMANDS = {
    "plan": plan_main,
    "batch": batch_main,
    "store": store_main,
    "serve": serve_main,
    "client": client_main,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        command, argv = _SUBCOMMANDS[argv[0]], argv[1:]
    else:
        command = query_main
    try:
        return command(argv)
    except OSError as error:
        return _fail(str(error), EXIT_ERROR)
    except ReproError as error:
        return _fail(str(error), error_exit_code(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

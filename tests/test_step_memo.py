"""The planner's step memo (``QueryPlanner.steps``, a :class:`repro.service.cache.Memo`).

A :class:`~repro.service.planner.QueryPlanner` keeps each location step
with predicates it has compiled, normalized, under its axis, node test
and the source text of its predicate group; a later compile that meets
the same step takes it instead of parsing and normalizing the group
again. Nothing about a plan may show it: a warm planner compiles every
query of the front-end golden corpora to what a cold
:func:`~repro.service.planner.compile_plan` builds, refuses what it
refuses with the same error at the same offset, and never puts one AST
object (or one ``uid``) at two positions of a tree — the table-based
evaluators key their tables by ``uid``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random
import sys
import threading
from unittest import mock

import pytest

from repro.cli import main as cli_main
from repro.engine import XPathEngine
from repro.errors import XPathSyntaxError
from repro.service import QueryService
from repro.service.cache import Memo
from repro.service.planner import QueryPlanner, _StepView, compile_plan
from repro.xml.parser import parse_document
from repro.xpath.ast import Path
from repro.xpath.normalize import MAX_HEIGHT
from repro.xpath.parser import MAX_DEPTH, parse_xpath
from repro.xpath.unparse import unparse

import test_xpath_frontend_golden as frontend

E2E = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def assert_positions_unique(tree) -> None:
    """No AST object and no ``uid`` sits at two positions of ``tree``."""
    nodes = list(tree.walk())
    assert len({id(node) for node in nodes}) == len(nodes)
    assert len({node.uid for node in nodes}) == len(nodes)


def fingerprint(compile, query: str, variables: dict | None = None) -> tuple:
    """What a compile produced, down to every step summary, or the error
    it raised; asserts the uid invariant on the way."""
    try:
        plan = compile(query, variables)
    except Exception as error:
        return ("error", type(error).__name__, str(error), getattr(error, "offset", None))
    assert_positions_unique(plan.ast)
    return (
        unparse(plan.ast),
        " ".join(frontend._relev(node) for node in plan.ast.walk()),
        plan.result_type,
        plan.core_violation,
        plan.wadler_violation,
        plan.bottomup_path_count,
        plan.traits,
        plan.step_summaries,
    )


@pytest.fixture(scope="module")
def corpus() -> list:
    """``(query, variables)`` of every cell of the front-end golden file."""
    golden = json.loads(frontend.GOLDEN.read_text(encoding="utf-8"))
    return [
        cell
        for group in frontend.GROUPS
        for cell in frontend.sources(group, golden).values()
    ]


@pytest.fixture(scope="module")
def batch_queries() -> list:
    """The queries of the end-to-end ``batch`` workload, seed 15."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", E2E / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    made = workloads.batch(15, 1.0).spec
    return [query for op in made["setup_ops"] + made["ops"] for query in op["queries"]]


# ----------------------------------------------------------------------
# a warm planner builds the cold trees
# ----------------------------------------------------------------------


def test_a_warm_planner_compiles_the_golden_corpora_as_a_cold_compile(corpus):
    planner = QueryPlanner()
    mismatches = []
    for query, variables in corpus:
        cold = fingerprint(compile_plan, query, variables)
        # The second compile finds every step of the first in the memo.
        for _ in range(2):
            if fingerprint(planner.compile, query, variables) != cold:
                mismatches.append(query)
    assert mismatches == []
    stats = planner.steps.stats.snapshot()
    assert stats["hits"] > 500 and stats["misses"] > 500 and stats["evictions"] > 0


def test_the_batch_workload_compiles_to_unique_positions_through_one_planner(batch_queries):
    planner = QueryPlanner()
    for query in batch_queries:
        assert_positions_unique(planner.compile(query).ast)
    stats = planner.steps.stats.snapshot()
    assert stats["hits"] > 2 * stats["misses"]


#: Queries that meet one memo step twice: ``a[b]`` itself, and ``b[c]``
#: both alone and inside ``a[b[c]]``.
REPEATED = (
    "//a[b]/c/a[b]",
    "//a[b[c]]/b[c]",
    "//a[b[c]]//a[b[c]]",
    "//c[a[b]]/a[b] | //a[b]",
    "//a[b[c] and c[a[b]]]/b[c]",
)
WARMUP = ("//a[b]", "//b[c]", "//a[b[c]]", "//c[a[b]]", "//x[c[a[b]]]")
DOCUMENT = (
    "<r><a><b><c/></b><c><a><b/><c><a><b><c/></b></a></c></a></c></a>"
    "<c><a><b><c/></b></a><a><c/></a></c><b><c><a><b/></a></c></b></r>"
)


@pytest.mark.parametrize("query", REPEATED)
def test_a_repeated_step_is_cloned_and_every_evaluator_agrees(query):
    planner = QueryPlanner()
    warmup = [planner.compile(text) for text in WARMUP]
    plan = planner.compile(query)
    assert planner.steps.stats.snapshot()["hits"] > 0
    assert_positions_unique(plan.ast)
    assert fingerprint(lambda q, v: plan, query) == fingerprint(compile_plan, query)
    # A hit is shared with the plan that stored it where it can be.
    stored = {id(node) for earlier in warmup for node in earlier.ast.walk()}
    assert any(id(node) in stored for node in plan.ast.walk())
    engine = XPathEngine(parse_document(DOCUMENT))
    expected = engine.evaluate(compile_plan(query), algorithm="topdown")
    for algorithm in ("bottomup", "mincontext", "optmincontext", "topdown", "naive"):
        assert engine.evaluate(plan, algorithm=algorithm) == expected, algorithm


def test_rebinding_a_variable_inside_a_predicate_changes_the_answer():
    document = parse_document("<r><a n='1'><b><c/></b></a><a n='2'><b><c/></b></a></r>")
    service = QueryService()
    query = "count(//a[b[c] and @n = $x])"
    answers = [service.evaluate(service.plan(query, {"x": x}), document) for x in (1.0, 2.0, 3.0)]
    assert answers == [1.0, 1.0, 0.0]
    assert service.evaluate(service.plan("//a[@n = $x]/b[c]", {"x": "2"}), document) == [
        document.nodes[document.nodes.index(node)]
        for node in XPathEngine(document, {"x": "2"}).evaluate("//a[@n = $x]/b[c]")
    ]
    # The group holding $x was parsed each time; only b[c] was memoized.
    assert service.cache_stats()["step_memo"]["hits"] >= 2


def test_a_raw_parse_after_a_warm_compile_is_still_raw():
    planner = QueryPlanner()
    planner.compile("//a[b and c]")
    planner.compile("//a[b and c]/d")
    raw = parse_xpath("//a[b and c]")
    assert all(node.value_type is None for node in raw.walk())
    predicate = raw.steps[-1].predicates[0]
    assert type(predicate.left) is Path  # no boolean() around it
    assert unparse(raw) == "/descendant-or-self::node()/child::a[child::b and child::c]"


def test_the_memo_never_exceeds_its_bound():
    planner = QueryPlanner()
    capacity = planner.steps.capacity
    assert capacity == Memo.DEFAULT_CAPACITY
    names = ["".join(chr(97 + (index // 26 ** k) % 26) for k in range(3)) for index in range(700)]
    for name in names:
        planner.compile(f"//{name}[b]/c")
        assert len(planner.steps) <= capacity
    stats = planner.steps.stats.snapshot()
    assert (stats["hits"], stats["misses"]) == (0, 700)
    assert stats["evictions"] == 700 - capacity
    assert stats["capacity"] == capacity


def test_eight_threads_compile_the_plans_of_one_thread():
    """Overlapping queries from eight threads through one small memo that
    evicts while they run: every plan is the cold one, and the counters
    add up to every lookup every compile made."""
    heads = ("//book[chapter[heading] and authors/author]", "//chapter[pages and ref]",
             "//book[chapter[heading]]", "//a[b[c]]")
    tails = ("/title", "/chapter[heading]", "/b[c]", "/authors/author[following-sibling::author]")
    queries = [head + tail for head in heads for tail in tails]
    expected = {query: fingerprint(compile_plan, query) for query in queries}
    planner = QueryPlanner()
    memo = planner.steps = Memo(capacity=6, name="step_memo")
    lookups: list = []
    settle = _StepView.settle

    def counted(view) -> None:
        lookups.append(view.lookups)
        settle(view)

    seen: list = []
    barrier = threading.Barrier(8)

    def work(seed: int) -> None:
        order = queries * 5
        random.Random(seed).shuffle(order)
        barrier.wait()
        for query in order:
            seen.append((query, fingerprint(planner.compile, query)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(_StepView, "settle", counted):
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 * 5 * len(queries)
    assert all(found == expected[query] for query, found in seen)
    stats = memo.stats.snapshot()
    assert stats["hits"] + stats["misses"] == sum(lookups) > 0
    assert stats["evictions"] > 0 and len(memo) <= 6


# ----------------------------------------------------------------------
# the limits hold on a hit
# ----------------------------------------------------------------------


def _outcome(compile, query: str) -> tuple:
    try:
        return ("plan", unparse(compile(query).ast))
    except XPathSyntaxError as error:
        return ("error", str(error), error.offset)


def test_a_hit_nested_past_max_depth_is_refused_where_a_cold_parse_is():
    planner = QueryPlanner()
    step = "//x[a[b]]"
    planner.compile(step)
    for levels in (MAX_DEPTH - 9, MAX_DEPTH - 2, MAX_DEPTH - 1):
        query = "(" * levels + step + ")" * levels
        assert _outcome(planner.compile, query) == _outcome(compile_plan, query)
    hits = planner.steps.stats.snapshot()["hits"]
    assert hits >= 1  # the shallow one took the stored step
    deep = "(" * (MAX_DEPTH - 1) + step + ")" * (MAX_DEPTH - 1)
    with pytest.raises(XPathSyntaxError) as refused:
        planner.compile(deep)
    assert refused.value.offset == deep.index("[b")


def test_a_tall_step_embedded_deeper_is_refused_as_a_cold_compile_refuses_it():
    planner = QueryPlanner()
    step = "x[" + " or ".join(["a"] * 60) + "]"  # its first term is 62 below it
    planner.compile("/" + step)

    def embedded(operators: int) -> str:
        """``step`` as the first term of an or-chain: that many levels
        further down."""
        return "/y[" + step + " or b" * operators + "]"

    deepest = MAX_HEIGHT - 64  # the last chain the step still fits under
    for query in (embedded(deepest), embedded(deepest + 1)):
        assert _outcome(planner.compile, query) == _outcome(compile_plan, query)
    assert _outcome(planner.compile, embedded(deepest))[0] == "plan"
    assert _outcome(planner.compile, embedded(deepest + 1)) == (
        "error", "query nested too deeply to compile", None
    )


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------


def test_cache_stats_and_the_batch_footer_count_the_memo(capsys):
    service = QueryService()
    document = parse_document("<a><b/><c><b/></c></a>")
    batch = service.evaluate_many(["//c[b]", "//a[c[b]]/c", "//a[c[b]]/b"], [document])
    assert (batch.step_stats["hits"], batch.step_stats["misses"]) == (2, 2)
    memo = service.cache_stats()["step_memo"]
    assert (memo["hits"], memo["misses"], memo["capacity"]) == (2, 2, Memo.DEFAULT_CAPACITY)
    code = cli_main(
        ["batch", "--xml", "<a><b/><c><b/></c></a>", "-q", "//c[b]", "-q", "//a[c[b]]/c",
         "-q", "//a[c[b]]/b", "--stats"]
    )
    assert code == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "step memo" in line]
    assert lines == ["step memo:    hits=2 misses=2 evictions=0 hit rate=50.0%"]

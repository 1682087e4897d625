"""Differential fuzzing over the Core XPath grammar — all six algorithms.

:func:`repro.workloads.queries.random_core_query` draws queries from
exactly Definition 12's grammar (location paths whose predicates are
and/or/not combinations of location paths), so every generated query is
evaluable by *all six* algorithms — including the linear-time
``corexpath`` evaluator, which the general fuzz loop in
``test_differential.py`` can only exercise opportunistically. The naive
recursive interpreter is the oracle: the other five must match it on
every case.

The suite is deterministic (fixed seed) and generates ~200 cases across
hand-built and random workload documents. It is marked ``slow`` — deselect
with ``pytest -m "not slow"`` for the quick tier.
"""

import random

import pytest

from repro.engine import XPathEngine
from repro.service import QueryService
from repro.workloads.documents import (
    random_document,
    running_example_document,
    wide_tree,
)
from repro.workloads.queries import random_core_query, random_full_query
from repro.xml.parser import parse_document

pytestmark = pytest.mark.slow

SEED = 20030612
CASES_PER_DOCUMENT = 20
RANDOM_DOCUMENTS = 7

#: The oracle first; the five others must agree with it.
SIX = ("naive", "bottomup", "topdown", "mincontext", "optmincontext", "corexpath")


def _fixed_documents():
    return [
        running_example_document(),
        wide_tree(width=6),
        parse_document(
            '<a id="1">x<b id="2"><a id="3">100</a>y</b>'
            '<c id="4" kind="k"><b id="5">1</b><b id="6">2</b><b id="7">2</b></c>'
            '<!--comment--><d id="8"/></a>'
        ),
    ]


def _check_six_way(engine, query):
    compiled = engine.compile(query)
    assert compiled.is_core_xpath, (
        f"generator escaped the Core XPath grammar: {query!r} "
        f"({compiled.core_violation})"
    )
    oracle = engine.evaluate(compiled, algorithm=SIX[0])
    for name in SIX[1:]:
        got = engine.evaluate(compiled, algorithm=name)
        assert got == oracle, (
            f"{name} disagrees with {SIX[0]} on {query!r}: {got!r} != {oracle!r}"
        )
    return oracle


def test_six_way_agreement_on_fixed_documents():
    rng = random.Random(SEED)
    cases = 0
    for document in _fixed_documents():
        engine = XPathEngine(document)
        for _ in range(CASES_PER_DOCUMENT):
            _check_six_way(engine, random_core_query(rng))
            cases += 1
    assert cases == CASES_PER_DOCUMENT * 3


def test_six_way_agreement_on_random_documents():
    rng = random.Random(SEED + 1)
    cases = 0
    for _ in range(RANDOM_DOCUMENTS):
        document = random_document(rng, max_nodes=14)
        engine = XPathEngine(document)
        for _ in range(CASES_PER_DOCUMENT):
            _check_six_way(engine, random_core_query(rng))
            cases += 1
    assert cases == CASES_PER_DOCUMENT * RANDOM_DOCUMENTS


def test_six_way_agreement_from_varied_context_nodes():
    """Core XPath agreement must hold from any element context node."""
    rng = random.Random(SEED + 2)
    document = random_document(rng, max_nodes=12)
    engine = XPathEngine(document)
    elements = document.elements()
    for _ in range(CASES_PER_DOCUMENT):
        query = random_core_query(rng, max_steps=3)
        context = rng.choice(elements)
        compiled = engine.compile(query)
        oracle = engine.evaluate(compiled, context_node=context, algorithm=SIX[0])
        for name in SIX[1:]:
            got = engine.evaluate(compiled, context_node=context, algorithm=name)
            assert got == oracle, (query, context.path(), name)


def _check_differential(engine, query):
    """Differential check with a corexpath-aware skip: queries inside
    Core XPath go through all six algorithms, the rest through the five
    full-XPath ones (corexpath's fragment precondition doesn't hold).
    Returns the compiled plan so callers can count fragment coverage."""
    compiled = engine.compile(query)
    names = SIX if compiled.is_core_xpath else SIX[:-1]
    oracle = engine.evaluate(compiled, algorithm=names[0])
    for name in names[1:]:
        got = engine.evaluate(compiled, algorithm=name)
        assert got == oracle, (
            f"{name} disagrees with {names[0]} on {query!r}: {got!r} != {oracle!r}"
        )
    return compiled


def test_full_grammar_differential_on_fixed_documents():
    """random_full_query extends the grammar with position()/last()
    arithmetic, count(), and string functions; the five full-XPath
    algorithms must agree on every case, all six on the cases that stay
    inside Core XPath."""
    rng = random.Random(SEED + 10)
    core_cases = 0
    full_cases = 0
    for document in _fixed_documents():
        engine = XPathEngine(document)
        for _ in range(CASES_PER_DOCUMENT):
            compiled = _check_differential(engine, random_full_query(rng))
            if compiled.is_core_xpath:
                core_cases += 1
            else:
                full_cases += 1
    # The distribution must straddle the fragment boundary, or the
    # corexpath-aware skip (and the six-way check) would be vacuous.
    assert core_cases > 0
    assert full_cases > 0


def test_full_grammar_differential_on_random_documents():
    rng = random.Random(SEED + 11)
    cases = 0
    for _ in range(RANDOM_DOCUMENTS):
        document = random_document(rng, max_nodes=14)
        engine = XPathEngine(document)
        for _ in range(CASES_PER_DOCUMENT):
            _check_differential(engine, random_full_query(rng))
            cases += 1
    assert cases == CASES_PER_DOCUMENT * RANDOM_DOCUMENTS


def test_full_grammar_exercises_the_new_constructs():
    """The extended generator actually emits what it advertises."""
    rng = random.Random(SEED + 12)
    bindings: dict = {}
    corpus = [random_full_query(rng, variables=bindings) for _ in range(120)]
    text = "\n".join(corpus)
    assert "position()" in text
    assert "last()" in text
    assert "count(" in text
    assert any(op in text for op in (" + ", " - ", " * ", " div ", " mod "))
    assert any(
        fn in text
        for fn in ("contains(", "starts-with(", "substring(", "string-length(")
    )
    # The PR 3 frontier: top-level unions and $-variable references.
    assert " | " in text
    assert "$" in text
    # The PR 5 frontier: id() pseudo-axis queries, in both the plain
    # function form and the id(π)-normalizes-to-a-step form.
    assert "id('" in text
    assert "id(self::node())" in text or "id(child::*)" in text or "id(id(" in text
    assert bindings, "variable references must record their bindings"
    assert all(
        isinstance(value, (str, float, int, bool)) for value in bindings.values()
    ), "generated bindings must be scalars (process-backend shippable)"


def test_full_grammar_unions_and_variables_differential():
    """The union/variable extension holds the five-way agreement (six-way
    when a case lands inside Core XPath), with the corexpath-aware skip
    driven purely by the compiled plan's classification — a top-level
    union is not a location path, so it must classify outside Core."""
    rng = random.Random(SEED + 14)
    bindings: dict = {}
    # Generate the whole corpus first: the bindings dict accumulates as a
    # side effect, and the engines must be built with the final dict
    # (XPathEngine copies its variables at construction).
    corpus = [random_full_query(rng, variables=bindings) for _ in range(60)]
    assert any(" | " in query for query in corpus)
    assert any("$" in query for query in corpus)
    union_cases = 0
    for document in _fixed_documents():
        engine = XPathEngine(document, variables=bindings)
        for query in corpus:
            compiled = _check_differential(engine, query)
            if " | " in query:
                union_cases += 1
                assert not compiled.is_core_xpath, query
    assert union_cases > 0


def test_id_pseudo_axis_differential():
    """PR 5's fuzz frontier: the five full-XPath algorithms agree on
    id() pseudo-axis queries over documents generated *with* id
    attributes (random_document keys every element sequentially, so the
    probes dereference real nodes). The pseudo-axis is outside Core
    XPath, which the classification-driven skip must report."""
    rng = random.Random(SEED + 30)
    id_cases = 0
    nonempty = 0
    for _ in range(RANDOM_DOCUMENTS):
        document = random_document(rng, max_nodes=16)
        engine = XPathEngine(document)
        for _ in range(CASES_PER_DOCUMENT):
            query = random_full_query(rng, max_steps=3)
            compiled = _check_differential(engine, query)
            if "id(" in query:
                id_cases += 1
                assert not compiled.is_core_xpath, query
                if engine.evaluate(compiled):
                    nonempty += 1
    assert id_cases >= 10, "the grammar must actually emit id() predicates"
    # The probes must hit real nodes some of the time, or the axis (and
    # its inverse) would only ever see empty sets.
    assert nonempty > 0


def _assert_batch_matches_engines(queries, documents, variables=None):
    """``evaluate_many`` over every (query, document) cell equals a fresh
    engine's answer on that cell."""
    batch = QueryService(variables=variables).evaluate_many(queries, documents)
    for doc_index, document in enumerate(documents):
        engine = XPathEngine(document, variables=variables)
        for query_index, query in enumerate(queries):
            assert batch.value(doc_index, query_index) == engine.evaluate(query), (
                query,
            )


def test_variable_corpus_through_the_batch_service():
    """Scalar fuzz bindings flow through the service's batch loop to
    every cell unchanged."""
    rng = random.Random(SEED + 15)
    bindings: dict = {}
    queries = [
        random_full_query(rng, max_steps=3, variables=bindings) for _ in range(10)
    ]
    documents = [random_document(rng, max_nodes=12) for _ in range(4)]
    _assert_batch_matches_engines(queries, documents, bindings)


def test_full_grammar_through_the_batch_service():
    """The batch loop returns byte-identical results to a fresh engine
    on the full-grammar corpus — it is grammar-blind."""
    rng = random.Random(SEED + 13)
    documents = [random_document(rng, max_nodes=12) for _ in range(4)]
    queries = [random_full_query(rng, max_steps=3) for _ in range(12)]
    _assert_batch_matches_engines(queries, documents)


def _nodeset_corpus(seed: int, count: int):
    """A corpus referencing the node-set variable ``$nset`` (plus the
    scalar pool), with the generator's placeholder bindings. Two
    hand-built queries are appended so ``$nset`` coverage never depends
    on the random draw."""
    rng = random.Random(seed)
    bindings: dict = {}
    corpus = [
        random_full_query(rng, variables=bindings, nodeset_names=("nset",))
        for _ in range(count)
    ]
    corpus.append("/descendant::*[count($nset) >= 1]")
    corpus.append("//b[self::* = $nset] | //c[$nset]")
    bindings.setdefault("nset", ())
    return corpus, bindings


def test_nodeset_variable_corpus_exercises_references():
    """The generator emits $nset references and records the empty-tuple
    placeholder callers must rebind per document."""
    corpus, bindings = _nodeset_corpus(SEED + 20, 60)
    assert sum("$nset" in query for query in corpus) >= 3
    assert bindings["nset"] == ()
    scalars = {k: v for k, v in bindings.items() if k != "nset"}
    assert all(isinstance(v, (str, float, int, bool)) for v in scalars.values())


def test_nodeset_variable_bindings_differential():
    """PR 3's remaining fuzz frontier: node-set-valued $v bindings. Each
    document binds $nset to its own ``//b`` nodes (node-sets must not
    cross documents — pre-order dedup/order is per-document), then the
    usual corexpath-aware differential check runs: five-way agreement,
    six-way when a case classifies inside Core XPath."""
    corpus, bindings = _nodeset_corpus(SEED + 21, 40)
    nodeset_cases = 0
    for document in _fixed_documents():
        document_bindings = dict(bindings)
        document_bindings["nset"] = XPathEngine(document).evaluate(
            "/descendant::*[position() <= 5]"
        )
        assert document_bindings["nset"], "fixture documents contain elements"
        engine = XPathEngine(document, variables=document_bindings)
        for query in corpus:
            _check_differential(engine, query)
            if "$nset" in query:
                nodeset_cases += 1
    assert nodeset_cases >= 3


def test_unions_of_nodeset_variables_differential():
    """A union of node-set variables reads no context component (its
    ``Relev`` is empty), so the table evaluators keep it in a one-row
    table — as a function argument, inside a predicate, as a path's
    start, and compared against the context node."""
    queries = (
        "count($a | $b)",
        "/descendant::*[count($a | $b) > 1]",
        "string($a | $b | $a)",
        "($a | $b)/*[last()]",
        "sum(($a | $b)/@id) > 3",
        "/descendant::*[. = ($a | $b)][position() > 1]",
    )
    for document in _fixed_documents():
        elements = XPathEngine(document).evaluate("/descendant::*")
        engine = XPathEngine(
            document, variables={"a": elements[:3], "b": elements[2:6]}
        )
        for query in queries:
            _check_differential(engine, query)


def test_nodeset_bindings_through_the_batch_service():
    """Node-set bindings reach every row of a batch: the nodes live in
    the caller's tree, which each row evaluates against. The same
    document twice gives two rows, the second answered from the memo."""
    corpus, bindings = _nodeset_corpus(SEED + 22, 10)
    queries = [query for query in corpus if "$nset" in query][:6]
    assert len(queries) >= 2
    for document in _fixed_documents()[:2]:
        document_bindings = dict(bindings)
        document_bindings["nset"] = XPathEngine(document).evaluate("//b")
        _assert_batch_matches_engines(queries, [document, document], document_bindings)


def test_fuzz_corpus_through_the_service_layer():
    """The cached service path returns byte-identical results to the
    fresh-engine path on the fuzz corpus (plans and results both reused)."""
    rng = random.Random(SEED + 3)
    document = random_document(rng, max_nodes=14)
    engine = XPathEngine(document)
    service = QueryService(plan_capacity=32)
    queries = [random_core_query(rng) for _ in range(30)]
    for query in queries + queries:  # second pass: all cache hits
        assert service.evaluate(query, document) == engine.evaluate(query)
    assert service.plans.stats.hits >= len(queries)


def test_fuzz_is_deterministic():
    """Same seed, same corpus — reproducibility of failures matters more
    than breadth here."""
    def corpus(seed):
        rng = random.Random(seed)
        return [random_core_query(rng) for _ in range(10)]

    assert corpus(SEED) == corpus(SEED)


def test_union_arms_inside_predicates_differential():
    """PR 7's fuzz frontier: predicates holding unions of paths —
    including *absolute* arms, which re-root at the document root mid-
    predicate — keep the five-way agreement. These predicates are
    outside Core XPath (Definition 12 predicates are and/or/not over
    single paths), which the classification-driven skip must report;
    the *main* path still carries step_keys, so such plans stay
    sharable in the batch DAG."""
    rng = random.Random(SEED + 40)
    bindings: dict = {}
    corpus = [random_full_query(rng, variables=bindings) for _ in range(90)]

    def union_predicate_arms(query):
        return "[" in query and " | /" in query.split("[", 1)[1]

    assert any(union_predicate_arms(query) for query in corpus), (
        "the grammar must emit union-of-paths predicates with absolute arms"
    )
    arm_cases = 0
    for document in _fixed_documents():
        engine = XPathEngine(document, variables=bindings)
        for query in corpus:
            compiled = _check_differential(engine, query)
            if union_predicate_arms(query):
                arm_cases += 1
                assert not compiled.is_core_xpath, query
    assert arm_cases > 0


def test_batch_sharing_differential():
    """share=True returns exactly the values of share=False on the full
    fuzz grammar, with the DAG counters reconciling exactly — the batch
    layer's own five-way-agreement analogue."""
    rng = random.Random(SEED + 41)
    queries = [random_full_query(rng) for _ in range(24)]
    # Guaranteed-sharing pairs: a syntactic-variant duo (normalizes to
    # one chain) and a prefix family over the generator's tag pool.
    queries += [
        "//a",
        "/descendant-or-self::node()/child::a",
        "//a/b",
        "//a/b/c",
        "//a/b[position() = last()]",
    ]
    documents = [random_document(rng, max_nodes=20) for _ in range(3)]
    shared = QueryService().evaluate_many(queries, documents)
    independent = QueryService().evaluate_many(queries, documents, share=False)
    assert shared.values == independent.values
    assert independent.batch_plan == {}
    plan = shared.batch_plan
    assert plan["shared_plans"] >= 5
    assert plan["cells"] == (
        plan["memo_hits"] + plan["shared_evaluations"] + plan["fallback_cells"]
    )
    if plan["fallback_cells"] == 0:
        assert plan["steps_saved"] >= 0

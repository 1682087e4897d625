"""Static dispatch and the admission price.

``auto`` is the paper's fragment dispatch — Theorem 13's sweep on Core
XPath, OPTMINCONTEXT elsewhere — whatever the service has observed.
What stays per document is the *price* admission control reads: the
cell's bound, :func:`cost_units` (``|D|·|Q|`` plus the positional-loop
width, one formula for every evaluator), scaled by the rates every
uncached evaluation feeds into :attr:`QueryService.timings`.
"""

import pytest

from repro.errors import FragmentViolationError, UnknownAlgorithmError
from repro.serve.admission import AdmissionController
from repro.service import QueryService, compile_plan
from repro.service.cost import DocumentProfile, cost_units, document_profile
from repro.stats import TimingStats
from repro.workloads.documents import balanced_tree, book_catalog, numbered_line
from repro.workloads.queries import core_family, wadler_family
from repro.xml.statistics import document_statistics
from test_xpath_frontend_golden import FULL_TEMPLATES, WADLER_TEMPLATES, template_sources


# ----------------------------------------------------------------------
# Profiles and traits
# ----------------------------------------------------------------------


def test_document_profile_matches_statistics():
    document = book_catalog(books=5)
    shape = document_statistics(document)
    profile = document_profile(document)
    assert profile.total_nodes == shape.total_nodes == len(document)
    assert profile.max_fanout == shape.max_fanout


def test_plan_traits_classify_position_dependence():
    no_position = compile_plan("//book[price > 20]/title")
    assert not no_position.traits.uses_position
    assert not no_position.traits.positional_sibling
    assert no_position.traits.ast_size > 1

    positional = compile_plan("/descendant::*[position() = last()]")
    assert positional.traits.uses_position
    assert not positional.traits.positional_sibling

    sibling = compile_plan(wadler_family(2))
    assert sibling.traits.uses_position
    assert sibling.traits.positional_sibling


def test_inner_position_does_not_leak_to_outer_traits():
    """position() bound by an inner step is resolved there: the outer
    predicate is position-independent and must not set the flags."""
    plan = compile_plan("//a[child::b[position() = 1]]")
    assert not plan.traits.positional_sibling


SMALL = DocumentProfile(total_nodes=200, max_fanout=8)
BIG = DocumentProfile(total_nodes=9000, max_fanout=16)


def test_cost_units_are_monotone_in_document_size():
    plan = compile_plan(core_family(4))
    assert cost_units(plan, SMALL) < cost_units(plan, BIG)


# ----------------------------------------------------------------------
# The price: the paper's bound, no constant of its own
# ----------------------------------------------------------------------


@pytest.mark.parametrize("query", ["//a/b", core_family(3), "/a[b or not(c)]//d"])
@pytest.mark.parametrize("profile", [SMALL, BIG, DocumentProfile(1, 0)])
def test_a_core_plan_costs_its_size_times_the_document(query, profile):
    """Theorem 13: Core XPath is O(|D|·|Q|), and it has no ``position()``
    (Definition 12), so no loop term is added."""
    plan = compile_plan(query)
    assert plan.is_core_xpath
    assert cost_units(plan, profile) == profile.total_nodes * plan.traits.ast_size


@pytest.mark.parametrize("profile", [SMALL, BIG])
def test_a_positional_plan_adds_two_loop_cells_per_node(profile):
    plan = compile_plan("//b[position() = 1]")
    assert plan.traits.uses_position and not plan.traits.positional_sibling
    n = profile.total_nodes
    assert cost_units(plan, profile) == n * plan.traits.ast_size + 2 * n


@pytest.mark.parametrize(
    "profile", [SMALL, BIG, DocumentProfile(50, 0), DocumentProfile(50, 1)]
)
def test_a_positional_sibling_step_adds_the_fanout_per_node(profile):
    plan = compile_plan("//a/following-sibling::b[position() = last()]")
    assert plan.traits.positional_sibling
    n = profile.total_nodes
    expected = n * plan.traits.ast_size + n * max(1, profile.max_fanout)
    assert cost_units(plan, profile) == expected


@pytest.mark.parametrize(
    "query", ["//book/title", "//book[position() = 2]/title"], ids=["core", "non-core"]
)
def test_admission_prices_units_at_the_evaluators_observed_rate(query):
    """Observations of ``seconds = k · units`` make the evaluator's rate
    ``k``, so the price is ``k · cost_units``: whatever constant factor
    an evaluator has lives in its rate, not in its units."""
    service = QueryService()
    admission = AdmissionController(service)
    document = book_catalog(books=4)
    plan = service.plan(query)
    algorithm = plan.best_algorithm()
    units = cost_units(plan, document_profile(document))
    k = {"corexpath": 3e-8, "optmincontext": 7e-6}[algorithm]
    for observed in range(1, AdmissionController.MIN_OBSERVATIONS + 1):
        assert admission.price(plan, document) == units * admission.seconds_per_unit
        service.timings.observe(algorithm, 100.0 * observed, k * 100.0 * observed)
    assert admission.price(plan, document) == pytest.approx(k * units)


def test_one_observation_moves_the_rate_at_most_twofold():
    """A 139× outlier (one mispriced cell) moves the rate by at most a
    factor of 2, and the rate is back within 1.1× of ``k`` after at most
    20 more ordinary observations; equal observations leave it exactly."""
    timings = TimingStats()
    k = 3e-8
    for units in range(100, 1100, 100):
        timings.observe("corexpath", units, k * units)
    settled = timings.rate("corexpath")
    assert settled == pytest.approx(k)
    timings.observe("corexpath", 500, k * 500)
    assert timings.rate("corexpath") == settled
    timings.observe("corexpath", 500, 139 * k * 500)
    assert settled < timings.rate("corexpath") <= 2 * settled * (1 + 1e-12)
    for observed in range(1, 21):
        timings.observe("corexpath", 500, k * 500)
        if timings.rate("corexpath") <= 1.1 * k:
            break
    assert timings.rate("corexpath") <= 1.1 * k, observed
    assert timings.snapshot()["corexpath"]["observations"] == 12 + observed


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def test_forced_algorithm_passes_through_and_validates():
    session = QueryService().session(book_catalog(books=2))
    plan = compile_plan("//b[position() = 1]")  # outside Core XPath
    assert session.resolve(plan, "topdown") == "topdown"
    with pytest.raises(FragmentViolationError):
        session.resolve(plan, "corexpath")
    with pytest.raises(UnknownAlgorithmError):
        session.resolve(plan, "fastest")


def _dispatch_cells() -> list[str]:
    """The serve-cold templates (Core, Extended Wadler and full XPath,
    each literal at its low / mid / high value) and ``core_family``."""
    queries = [
        query
        for name, query in template_sources().items()
        if name.startswith(("core-", "wadler-", "full-", "cold-"))
    ]
    assert len(WADLER_TEMPLATES) + len(FULL_TEMPLATES) == 13
    queries += [
        core_family(depth, with_predicates=flag)
        for depth in (2, 3, 4, 5)
        for flag in (True, False)
    ]
    return queries


def test_auto_does_not_depend_on_observed_rates():
    """Observed timings price admission; they never steer ``auto``. Fed
    rates that make the Core XPath sweep 10⁴× slower per unit than the
    table evaluators, every cell still resolves to — and runs — the
    plan's fragment dispatch."""
    service = QueryService()
    documents = [book_catalog(books=6), balanced_tree(6, 3), numbered_line(200)]
    units = cost_units(compile_plan("//a/b"), SMALL)
    for _ in range(10):
        service.timings.observe("corexpath", units, 1.0)
        service.timings.observe("optmincontext", units, 1e-4)
        service.timings.observe("mincontext", units, 1e-4)
    queries = _dispatch_cells()
    assert any(compile_plan(query).is_core_xpath for query in queries)
    assert not all(compile_plan(query).is_core_xpath for query in queries)
    for document in documents:
        session = service.session(document)
        for query in queries:
            plan = service.plan(query)
            expected = plan.best_algorithm()
            assert session.resolve(plan) == expected, query
            before = service.timings.observation_count(expected)
            session.evaluate(plan, cached=False)
            assert service.timings.observation_count(expected) == before + 1, query


def test_session_evaluations_feed_the_timing_model():
    service = QueryService()
    document = book_catalog(books=3)
    service.evaluate("//book/title", document)
    service.evaluate("//book/title", document)  # a memo hit: not timed
    snapshot = service.cache_stats()["timings"]
    assert snapshot.keys() == {"corexpath"}
    assert snapshot["corexpath"]["observations"] == 1
    assert service.timings.rate("corexpath") > 0.0
    # The end-to-end harness's compatibility key: always zero.
    spec = service.cache_stats()["specialize_cache"]
    assert (spec["hits"], spec["misses"], spec["evictions"]) == (0, 0, 0)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def _run_cli(capsys, *argv):
    from repro.cli import main

    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_plan_explain_without_document(capsys):
    code, out, _ = _run_cli(capsys, "plan", "--explain", "//book[price > 20]/title")
    assert code == 0
    assert "algorithm:        optmincontext (Corollary 11:" in out
    assert "profile:" not in out and "cost units:" not in out
    code, out, _ = _run_cli(capsys, "plan", "--explain", "//book/title")
    assert code == 0
    assert "algorithm:        corexpath (Theorem 13:" in out


def test_cli_plan_explain_with_document_names_profile_and_choice(capsys):
    code, out, _ = _run_cli(
        capsys,
        "plan",
        "--explain",
        "--xml",
        "<a><b>1</b><b>2</b></a>",
        "//b[. > 1]",
    )
    assert code == 0
    assert "algorithm:        optmincontext (Corollary 11:" in out
    assert "|dom|=6" in out
    assert "profile:          |dom|=6 fanout=2" in out
    plan = compile_plan("//b[. > 1]")
    profile = DocumentProfile(total_nodes=6, max_fanout=2)
    assert f"cost units:       {cost_units(plan, profile):.3g}" in out


def test_cli_plan_document_implies_explain(capsys):
    """A document handed to ``plan`` is a question about that document —
    it must never be silently ignored just because --explain was not
    spelled out."""
    code, out, _ = _run_cli(capsys, "plan", "--xml", "<a><b/></a>", "//b")
    assert code == 0
    assert "algorithm:        corexpath (Theorem 13:" in out
    assert "profile:" in out and "cost units:" in out

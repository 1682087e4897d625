"""Two-stage compilation: the physical-plan specializer.

Three properties matter. *Correctness* — whatever evaluator the cost
model picks, the result must be byte-identical to every legal forced
algorithm (the paper's algorithms agree; specialization only picks among
them), and ``specialize=False`` must reproduce the static fragment
dispatch exactly. *Accounting* — the specializer memo's
hit/miss/eviction counters are exact, like every other cache in the
service layer. *Sanity of the model itself* — the decisions the seed
constants encode (the Core XPath sweep on Core queries, OPTMINCONTEXT
everywhere else, MINCONTEXT never under ``auto``, the Theorem 13 clamp)
are pinned so a constant tweak that silently inverts a decision fails
here, not in a benchmark regression.
"""

import random

import pytest

from repro.engine import XPathEngine
from repro.errors import FragmentViolationError
from repro.service import QueryService, ShardedExecutor, compile_plan
from repro.service.specialize import (
    DocumentProfile,
    PlanSpecializer,
    REPRESENTATIVE_PROFILES,
    cost_units,
    document_profile,
)
from repro.workloads.documents import (
    book_catalog,
    numbered_line,
    random_document,
    running_example_document,
    wide_tree,
)
from repro.workloads.queries import (
    core_family,
    random_core_query,
    random_full_query,
    wadler_family,
)
from repro.xml.parser import parse_document
from repro.xml.statistics import document_statistics


# ----------------------------------------------------------------------
# Profiles and traits
# ----------------------------------------------------------------------


def test_document_profile_matches_statistics():
    document = book_catalog(books=5)
    shape = document_statistics(document)
    profile = DocumentProfile.of(document)
    assert profile.total_nodes == shape.total_nodes == len(document)
    assert profile.max_depth == shape.max_depth
    assert profile.max_fanout == shape.max_fanout
    assert profile.text_ratio == pytest.approx(
        shape.total_text_bytes / shape.total_nodes
    )


def test_document_profile_is_cached_process_wide():
    document = book_catalog(books=3)
    assert document_profile(document) is document_profile(document)


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

    strings = compile_plan("//a[contains(string(self::node()), 'x')]")
    assert strings.traits.string_op_count >= 2  # contains + string


def test_inner_position_does_not_leak_to_outer_traits():
    """position() bound by an inner step is resolved there: the outer
    predicate is position-independent and must not set the flags."""
    plan = compile_plan("//a[child::b[position() = 1]]")
    assert not plan.traits.positional_sibling


# ----------------------------------------------------------------------
# Cost-model decisions (pinned against the measured seed constants)
# ----------------------------------------------------------------------


def _specialize(query, profile):
    return PlanSpecializer().specialize(compile_plan(query), profile)


SMALL = DocumentProfile(total_nodes=200, max_depth=5, max_fanout=8, text_ratio=2.0)
BIG = DocumentProfile(total_nodes=9000, max_depth=12, max_fanout=16, text_ratio=2.0)
LINE = DocumentProfile(total_nodes=513, max_depth=3, max_fanout=170, text_ratio=1.0)


def test_core_query_prefers_corexpath_after_the_array_rewrite():
    """PR 5 re-measured the seed constants: the sorted-array Core XPath
    sweep now runs *below* MINCONTEXT's constants at every size, so the
    cost model keeps corexpath on Core queries on merit — small and
    large alike, no clamp needed."""
    small = _specialize(core_family(4), SMALL)
    assert small.algorithm == "corexpath"
    assert not small.clamped
    big = _specialize(core_family(4), BIG)
    assert big.algorithm == "corexpath"
    assert not big.clamped


def test_large_core_query_clamp_overrides_hostile_observed_rates():
    """The Theorem 13 guarantee clamp still backs the choice: even when
    observed timings would steer the model away from corexpath, a large
    Core query defers to the fragment guarantee."""
    specializer = PlanSpecializer()
    plan = compile_plan(core_family(4))
    units = cost_units(plan, BIG, "corexpath")
    for _ in range(PlanSpecializer.MIN_OBSERVATIONS):
        specializer.timings.observe("corexpath", units, 10.0)       # "slow"
        specializer.timings.observe("mincontext", units, 1e-6)      # "fast"
        specializer.timings.observe("optmincontext", units, 1e-6)
    physical = specializer.specialize(plan, BIG)
    assert physical.algorithm == "corexpath"
    assert physical.clamped
    assert "Theorem 13" in physical.rationale


def test_selective_nonpositional_query_runs_optmincontext():
    """OPTMINCONTEXT decides the comparison's start set in one sweep, so
    its whole-document bottom-up pass no longer loses to MINCONTEXT's
    demand-driven tables on a selective query: ``auto`` does not offer
    MINCONTEXT at all."""
    physical = _specialize("//book[price > 20]/title", SMALL)
    assert physical.algorithm == "optmincontext"
    assert "mincontext" not in dict(physical.estimates)


def test_large_wadler_query_runs_optmincontext_unclamped():
    """Outside Core XPath OPTMINCONTEXT is the only candidate, so the
    Corollary 11 guarantee needs no clamp past the size threshold."""
    physical = _specialize("//book[price > 20]/title", BIG)
    assert physical.algorithm == "optmincontext"
    assert not physical.clamped
    assert "clamp" not in physical.rationale


def test_positional_sibling_on_high_fanout_prefers_optmincontext():
    physical = _specialize(wadler_family(2), LINE)
    assert physical.algorithm == "optmincontext"
    assert not physical.clamped


def test_positional_sibling_on_low_fanout_runs_optmincontext():
    physical = _specialize(wadler_family(2), SMALL)
    assert physical.algorithm == "optmincontext"


def test_rationale_names_the_driving_features():
    physical = _specialize(wadler_family(2), LINE)
    assert f"|dom|={LINE.total_nodes}" in physical.rationale
    assert f"fanout={LINE.max_fanout}" in physical.rationale
    assert "positional=sibling" in physical.rationale
    assert dict(physical.estimates).keys() == {"optmincontext"}


def test_core_candidates_include_corexpath():
    physical = _specialize(core_family(4), SMALL)
    assert "corexpath" in dict(physical.estimates)


def test_forced_algorithm_passes_through_and_validates():
    specializer = PlanSpecializer()
    plan = compile_plan("//b[position() = 1]")  # outside Core XPath
    forced = specializer.specialize(plan, SMALL, "topdown")
    assert forced.algorithm == "topdown"
    assert forced.requested == "topdown"
    assert "forced" in forced.rationale
    with pytest.raises(FragmentViolationError):
        specializer.specialize(plan, SMALL, "corexpath")


def test_cost_units_are_monotone_in_document_size():
    plan = compile_plan(core_family(4))
    for algorithm in ("mincontext", "optmincontext", "corexpath"):
        assert cost_units(plan, SMALL, algorithm) < cost_units(plan, BIG, algorithm)


# ----------------------------------------------------------------------
# Memo accounting and online refinement
# ----------------------------------------------------------------------


def test_specializer_memo_counters_are_exact():
    specializer = PlanSpecializer()
    plan = compile_plan("//b")
    for _ in range(3):
        specializer.specialize(plan, SMALL)
    specializer.specialize(plan, BIG)
    stats = specializer.stats
    assert stats.misses == 2          # (plan, SMALL) and (plan, BIG)
    assert stats.hits == 2            # two repeats of (plan, SMALL)
    assert stats.evictions == 0
    assert len(specializer) == 2


def test_specializer_memo_evicts_lru_one_at_a_time():
    """PR 5 satellite: capacity overflow evicts exactly one LRU entry
    (the PlanCache pattern), not the whole memo — hot entries survive."""
    specializer = PlanSpecializer(memo_capacity=2)
    plan = compile_plan("//b")
    profiles = [
        DocumentProfile(total_nodes=n, max_depth=2, max_fanout=2, text_ratio=0.0)
        for n in (10, 20, 30)
    ]
    specializer.specialize(plan, profiles[0])
    specializer.specialize(plan, profiles[1])
    specializer.specialize(plan, profiles[0])   # refresh: now profiles[1] is LRU
    specializer.specialize(plan, profiles[2])   # evicts profiles[1] only
    assert specializer.stats.misses == 3
    assert specializer.stats.hits == 1
    assert specializer.stats.evictions == 1
    assert len(specializer) == 2
    # The refreshed entry survived the eviction; the LRU one did not.
    hits_before = specializer.stats.hits
    specializer.specialize(plan, profiles[0])
    assert specializer.stats.hits == hits_before + 1
    specializer.specialize(plan, profiles[1])
    assert specializer.stats.misses == 4


def test_observed_rates_refine_future_selections():
    """Online refinement: once every candidate has enough observations,
    the per-algorithm seconds-per-unit rates scale the estimates. On a
    Core plan the seed units favor the Core XPath sweep; observed rates
    that make it a hundred times slower per unit than OPTMINCONTEXT flip
    a new (plan, profile) pair."""
    specializer = PlanSpecializer()
    plan = compile_plan("//a/b")  # Core, no predicates: no bottom-up paths
    baseline = specializer.specialize(plan, SMALL)
    assert baseline.algorithm == "corexpath"
    assert not baseline.clamped
    units = cost_units(plan, SMALL, "optmincontext")
    for _ in range(PlanSpecializer.MIN_OBSERVATIONS):
        specializer.timings.observe("corexpath", units, 1.0)       # slow
        specializer.timings.observe("optmincontext", units, 0.01)  # fast
    fresh_profile = DocumentProfile(
        total_nodes=201, max_depth=5, max_fanout=8, text_ratio=2.0
    )
    refined = specializer.specialize(plan, fresh_profile)
    assert refined.algorithm == "optmincontext"
    assert "observed" in refined.rationale
    # The memoized earlier selection stays pinned — refinement affects
    # future pairs, never past ones.
    assert specializer.specialize(plan, SMALL).algorithm == "corexpath"


def test_partial_observations_do_not_skew_selection():
    """Rates apply only when every candidate is observed: mixing one
    measured rate with defaults would favor whichever ran first."""
    specializer = PlanSpecializer()
    plan = compile_plan("//a/b")
    for _ in range(PlanSpecializer.MIN_OBSERVATIONS):
        specializer.timings.observe("optmincontext", 100.0, 1e-9)
    assert specializer.specialize(plan, SMALL).algorithm == "corexpath"


def test_session_evaluations_feed_the_timing_model():
    service = QueryService()
    document = book_catalog(books=3)
    service.evaluate("//book/title", document)
    snapshot = service.specializer.timings.snapshot()
    assert sum(entry["observations"] for entry in snapshot.values()) == 1
    assert service.cache_stats()["specialize_cache"]["misses"] == 1


# ----------------------------------------------------------------------
# Correctness: specialized auto vs every legal forced algorithm
# ----------------------------------------------------------------------

FIVE = ("naive", "bottomup", "topdown", "mincontext", "optmincontext")


def _fuzz_corpus():
    rng = random.Random(20030613)
    queries = [random_core_query(rng, max_steps=3) for _ in range(8)]
    queries += [random_full_query(rng, max_steps=3) for _ in range(12)]
    queries += [
        core_family(3),
        wadler_family(1),
        "//b[. > 1]",
        "count(//*)",
        "/descendant::*[position() = last()]",
    ]
    documents = [
        running_example_document(),
        wide_tree(width=5),
        parse_document('<a id="1">x<b id="2"><a id="3">100</a></b><b id="4">2</b></a>'),
        random_document(rng, max_nodes=14),
    ]
    return queries, documents


def test_specialized_auto_matches_every_legal_forced_algorithm():
    """The satellite's headline gate: for every fuzz-corpus (query,
    document) pair, the specialized ``auto`` result is byte-identical to
    every legal forced algorithm (all six inside Core XPath)."""
    queries, documents = _fuzz_corpus()
    service = QueryService()
    assert service.specialize
    for document in documents:
        engine = XPathEngine(document)
        for query in queries:
            specialized = service.evaluate(query, document)
            compiled = engine.compile(query)
            names = FIVE + (("corexpath",) if compiled.is_core_xpath else ())
            for name in names:
                forced = engine.evaluate(compiled, algorithm=name)
                assert specialized == forced, (query, name)


def test_no_specialize_reproduces_static_dispatch_exactly():
    """``specialize=False`` must *be* the old behavior: every auto
    resolution equals the plan's static fragment dispatch, and the
    values match the specialized service's."""
    queries, documents = _fuzz_corpus()
    static = QueryService(specialize=False)
    specialized = QueryService()
    assert static.specializer is None
    for document in documents:
        session = static.session(document)
        for query in queries:
            plan = static.plan(query)
            assert session.resolve(plan) == plan.best_algorithm()
            assert static.evaluate(query, document) == specialized.evaluate(
                query, document
            )
    assert "specialize_cache" not in static.cache_stats()


def test_specialization_is_identical_across_backends():
    """Sharded workers inherit the parent's specialize setting through
    the service config, so every backend returns the same values."""
    queries, documents = _fuzz_corpus()
    queries = queries[:6]
    documents = documents[:3]
    sequential = QueryService().evaluate_many(queries, documents)
    for backend in ("serial", "thread", "process", "async"):
        for specialize in (True, False):
            executor = ShardedExecutor(
                workers=2, backend=backend, specialize=specialize
            )
            assert executor.service_config["specialize"] is specialize
            batch = executor.execute(queries, documents)
            assert batch.values == sequential.values, (backend, specialize)


def test_engine_specialize_flag_matches_static_values():
    document = book_catalog(books=4)
    static_engine = XPathEngine(document)
    specialized_engine = XPathEngine(document, specialize=True)
    for query in ("//book/title", core_family(3), "//book[price > 20]",
                  "/descendant::*[position() = last()]"):
        assert specialized_engine.evaluate(query) == static_engine.evaluate(query)


def test_plan_cache_counters_stay_exact_under_the_split():
    """The two-stage split must not change plan-cache accounting: one
    lookup per evaluate call, every miss a compile, every overflow an
    eviction."""
    service = QueryService(plan_capacity=2)
    document = running_example_document()
    queries = ["//b", "//c", "count(//*)"]  # 3 distinct > capacity 2
    for _ in range(2):
        for query in queries:
            service.evaluate(query, document)
    plan_stats = service.plans.stats
    assert plan_stats.hits + plan_stats.misses == 6
    assert plan_stats.misses - plan_stats.evictions == len(service.plans)
    assert len(service.plans) <= 2


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
    assert "physical specialization" in out
    assert "chosen algorithm:" in out
    assert "rationale:" in out
    for label, _ in REPRESENTATIVE_PROFILES:
        assert f"[{label}]" in out


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
    assert "[given document]" in out
    assert "|dom|=6" in out
    assert "chosen algorithm: optmincontext" in out
    assert "bottomup-paths=1" in out


def test_cli_plan_document_implies_explain(capsys):
    """A document handed to ``plan`` is a question about that document —
    it must never be silently ignored just because --explain was not
    spelled out."""
    code, out, _ = _run_cli(capsys, "plan", "--xml", "<a><b/></a>", "//b")
    assert code == 0
    assert "physical specialization" in out
    assert "[given document]" in out


def test_cli_batch_no_specialize_is_value_identical(capsys):
    argv = [
        "batch",
        "--xml", "<a><b>1</b><b>2</b></a>",
        "--xml", "<a><c>9</c></a>",
        "-q", "//b[. > 1]",
        "-q", "count(//*)",
    ]
    code_spec, out_spec, _ = _run_cli(capsys, *argv)
    code_static, out_static, _ = _run_cli(capsys, *argv, "--no-specialize")
    assert code_spec == code_static == 0
    assert out_spec == out_static


def test_cli_batch_stats_reports_specializer_counters(capsys):
    code, _, err = _run_cli(
        capsys,
        "batch",
        "--xml", "<a><b>1</b></a>",
        "-q", "//b", "-q", "//b",
        "--stats",
    )
    assert code == 0
    assert "specializer:" in err
    code, _, err = _run_cli(
        capsys,
        "batch",
        "--xml", "<a><b>1</b></a>",
        "-q", "//b",
        "--stats",
        "--no-specialize",
    )
    assert code == 0
    assert "specializer:" not in err

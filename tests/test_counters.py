"""The counter families of :mod:`repro.stats` and their declared identities.

One mixed in-process run drives every family: a store put, load and
delete, a shared ``evaluate_many``, and daemon ``QUERY`` / ``BATCH``
traffic with a memo hit, a rate rejection, a deadline and a fault-seam
kill. Every declared identity of every family must then read residual 0
on the run's before/after delta. The process-global families
(``store_stats``, ``axis_kernel_stats``) are read as deltas because
other tests move them too; the store's crash matrix, for one, leaves a
file written with no put. The negative checks make sure a residual of 0
means something: a broken snapshot reads nonzero, and a counter no
family declares cannot be ticked.
"""

import pytest

from conftest import permissive, running_daemon
from repro import stats
from repro.errors import DeadlineExceededError, RateLimitedError, RemoteError
from repro.serve import FaultInjector, ServeClient
from repro.serve.quotas import TokenBucket
from repro.service.service import QueryService
from repro.stats import FAMILIES
from repro.xml.parser import parse_document
from repro.xml.store import DocumentStore

BOOKS = (
    "<lib><book><title>A</title><price>8</price></book>"
    "<book><title>B</title><price>23</price></book></lib>"
)

#: Prefix-sharing queries, one duplicate: memo hits, shared evaluations
#: and materialized prefixes all occur.
QUERIES = ["//book/title", "//book/price", "//book", "//book/title", "count(//book)"]


def _ids(family):
    return family.name


def test_every_declared_identity_closes_on_a_mixed_run(tmp_path):
    store_before = stats.store_stats.snapshot()
    kernels_before = stats.axis_kernel_stats.snapshot()

    store = DocumentStore(tmp_path / "store")
    store.save("books", parse_document(BOOKS))
    loaded = store.load("books")
    store.delete("books")

    batch = QueryService().evaluate_many(QUERIES, [parse_document(BOOKS), loaded])

    injector = FaultInjector(delay_matching="slow", delay_seconds=0.5, die_matching="boom")
    service = QueryService()
    with running_daemon(
        service=service, injector=injector, admission=permissive(service)
    ) as daemon:
        with ServeClient(port=daemon.port, client="mixed", timeout=10) as client:
            client.register("d", BOOKS)
            assert client.query("//book/title", "d")["memo"] is False
            assert client.query("//book/title", "d")["memo"] is True
            client.batch(["//title", "//price"], ["d"])
            with pytest.raises(DeadlineExceededError):
                client.query("//slow", "d", deadline_ms=100, retry=False)
            with pytest.raises(RemoteError) as killed:
                client.query("//boom", "d", retry=False)
            assert killed.value.protocol_code == "EVALUATION"
            daemon.core.clients["mixed"].bucket = TokenBucket(rate=1.0, burst=1, clock=lambda: 0.0)
            assert client.query("//book/title", "d", retry=False)["memo"] is True
            with pytest.raises(RateLimitedError):
                client.query("//book/title", "d", retry=False)
            wire = client.stats()
        served = daemon.core.stats.snapshot()

    deltas = {
        "cache": [
            batch.plan_stats,
            batch.result_stats,
            batch.holds_stats,
            batch.step_stats,
            *(
                snapshot
                for key, snapshot in service.cache_stats().items()
                if key not in ("sessions", "timings")
            ),
        ],
        "axis": [stats.axis_kernel_stats.delta(kernels_before)],
        "batch_plan": [batch.batch_plan],
        "serve": [served, wire["global"], *wire["clients"].values()],
        "store": [stats.store_stats.delta(store_before)],
        "faults": [wire["faults"]],
    }
    assert set(deltas) == {family.name for family in FAMILIES}
    for family in FAMILIES:
        for delta in deltas[family.name]:
            residuals = family.residuals(delta)
            assert set(residuals) >= set(family.identities)
            assert not any(residuals.values()), (family.name, residuals, delta)

    # The run reached what it set out to reach.
    assert batch.batch_plan["shared_evaluations"] > 0 and batch.batch_plan["memo_hits"] > 0
    moved = deltas["store"][0]
    assert (moved["puts"], moved["opens"], moved["deletes"]) == (1, 1, 1)
    assert served["memo_hits"] == 2 and served["rejected_rate"] == 1
    assert served["deadlined"] == 1 and served["failed"] == 1
    assert wire["faults"]["faults_injected"] == 2
    # STATS carries the same residuals, computed in the daemon.
    reported = wire["residuals"]
    assert reported["global"] == stats.ServeStats.residuals(wire["global"])
    assert reported["clients"].keys() == wire["clients"].keys()
    for residuals in [reported["global"], *reported["clients"].values()]:
        assert set(residuals) >= set(stats.ServeStats.identities)
        assert not any(residuals.values()), residuals


@pytest.mark.parametrize(
    "family", [family for family in FAMILIES if family.identities], ids=_ids
)
def test_a_snapshot_that_breaks_an_identity_reads_a_nonzero_residual(family):
    zero = family().snapshot()
    assert not any(family.residuals(zero).values())
    for name, form in [*family.identities.items(), *family.derived.items()]:
        assert family.residuals(dict(zero, **{name: 1}))[name] == 1
        for key, coefficient in form.items():
            assert family.residuals(dict(zero, **{key: 1}))[name] == -coefficient


@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_an_undeclared_counter_is_a_key_error(family):
    counters = family()
    with pytest.raises(KeyError):
        counters.tick("bogus")
    with pytest.raises(KeyError):
        counters.add({counters.COUNTERS[0]: 1, "bogus": 1})
    assert counters.snapshot() == family().snapshot()


def test_an_event_names_its_mirrors_only_while_a_collector_is_open():
    counters = stats.ServeStats()
    counters._mirrors = {}  # naming a mirror would now be a KeyError
    counters.add({"requests": 1, "queries": 1})
    assert counters.snapshot()["queries"] == 1
    with stats.collect() as collector:
        stats.ServeStats().add({"requests": 1, "queries": 2})
    assert collector.get("serve_queries") == 2


def test_closing_an_inner_collector_leaves_the_outer_one_counting():
    with stats.collect() as outer:
        with stats.collect() as inner:
            pass
        stats.count("x")
    assert outer.get("x") == 1 and inner.get("x") == 0
    assert not stats.collecting()

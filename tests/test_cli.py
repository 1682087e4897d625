"""Tests for the command-line tool."""

import pytest

from repro.cli import main


XML = '<a id="1"><b id="2">10</b><b id="3">20</b></a>'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basic_query_paths(capsys):
    code, out, err = run(capsys, "//b", "--xml", XML)
    assert code == 0
    assert out.splitlines() == ["/a[1]/b[1]", "/a[1]/b[2]"]


def test_output_xml(capsys):
    code, out, _ = run(capsys, "//b[1]", "--xml", XML, "--output", "xml")
    assert code == 0
    assert out.strip() == '<b id="2">10</b>'


def test_output_value(capsys):
    code, out, _ = run(capsys, "//b", "--xml", XML, "--output", "value")
    assert out.splitlines() == ["10", "20"]


def test_scalar_result(capsys):
    code, out, _ = run(capsys, "count(//b)", "--xml", XML)
    assert code == 0
    assert out.strip() == "2.0"


def test_boolean_result_rendering(capsys):
    _, out, _ = run(capsys, "boolean(//b)", "--xml", XML)
    assert out.strip() == "true"


def test_empty_node_set_message(capsys):
    _, out, _ = run(capsys, "//missing", "--xml", XML)
    assert "(empty node-set)" in out


def test_algorithm_flag(capsys):
    code, out, _ = run(capsys, "//b", "--xml", XML, "--algorithm", "mincontext")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_explain_output(capsys):
    code, out, _ = run(capsys, "//b[position() = 1]", "--xml", XML, "--explain")
    assert code == 0
    assert "Core XPath:" in out
    assert "Extended Wadler:" in out
    assert "parse tree:" in out
    assert "optmincontext" in out


def test_compare_agreement(capsys):
    code, out, err = run(capsys, "//b[. > 15]", "--xml", XML, "--compare")
    assert code == 0
    assert "AGREE" in err
    assert out.count("---") >= 6  # at least three algorithm sections


def test_file_input(tmp_path, capsys):
    path = tmp_path / "doc.xml"
    path.write_text(XML, encoding="utf-8")
    code, out, _ = run(capsys, "//b", "--file", str(path))
    assert code == 0
    assert len(out.splitlines()) == 2


def test_strip_whitespace_flag(capsys):
    source = "<a>\n  <b>x</b>\n</a>"
    _, out, _ = run(capsys, "count(/a/text())", "--xml", source)
    assert out.strip() == "2.0"
    _, out, _ = run(capsys, "count(/a/text())", "--xml", source, "--strip-whitespace")
    assert out.strip() == "0.0"


def test_error_reporting(capsys):
    code, _, err = run(capsys, "//b[", "--xml", XML)
    assert code == 3  # EXIT_QUERY: unparsable query
    assert "error:" in err
    code, _, err = run(capsys, "//b", "--xml", "<a><unclosed>")
    assert code == 4  # EXIT_DOCUMENT: malformed XML
    assert "error:" in err


def test_optimize_flag(capsys):
    code, out, _ = run(capsys, "//b[1 = 1]", "--xml", XML, "--optimize", "--explain")
    assert code == 0
    assert "rewrites applied:" in out
    assert "evaluation plan" in out


def test_explain_shows_plan_strategies(capsys):
    _, out, _ = run(capsys, "//b[. = 10]", "--xml", XML, "--explain")
    assert "bottom-up" in out
    assert "outermost-set" in out


# ----------------------------------------------------------------------
# plan subcommand
# ----------------------------------------------------------------------


def test_plan_subcommand_core_query(capsys):
    code, out, _ = run(capsys, "plan", "//b")
    assert code == 0
    assert "normalized query:" in out
    assert "Core XPath:       yes" in out
    assert "algorithm:        corexpath" in out


def test_plan_subcommand_full_xpath_query(capsys):
    code, out, _ = run(capsys, "plan", "//b[position() = last()]")
    assert code == 0
    assert "Core XPath:       no" in out
    assert "algorithm:        optmincontext" in out


def test_plan_subcommand_tree_flag(capsys):
    code, out, _ = run(capsys, "plan", "//b[. = 10]", "--tree")
    assert code == 0
    assert "parse tree:" in out
    assert "evaluation plan" in out


def test_plan_subcommand_optimize_flag(capsys):
    code, out, _ = run(capsys, "plan", "//b[1 = 1]", "--optimize")
    assert code == 0
    assert "rewrites applied:" in out


def test_plan_subcommand_malformed_query_exit_code(capsys):
    code, _, err = run(capsys, "plan", "//b[")
    assert code == 3  # EXIT_QUERY
    assert "error:" in err


def test_plan_subcommand_unbound_variable_exit_code(capsys):
    code, _, err = run(capsys, "plan", "//b[. > $nope]")
    assert code == 3  # EXIT_QUERY: unbound variables are query errors
    assert "error:" in err


def test_query_literally_named_plan_stays_reachable(capsys):
    """'plan' dispatches to the subcommand only in first position; leading
    with an option keeps it usable as a plain query."""
    code, out, _ = run(capsys, "--xml", "<plan id='1'><x/></plan>", "plan")
    assert code == 0
    assert out.strip() == "/plan[1]"


# ----------------------------------------------------------------------
# batch subcommand
# ----------------------------------------------------------------------


def test_batch_subcommand_multiple_queries_and_documents(capsys):
    code, out, _ = run(
        capsys,
        "batch",
        "--xml", XML,
        "--xml", "<a><b>30</b></a>",
        "-q", "//b",
        "-q", "count(//b)",
    )
    assert code == 0
    assert out.count("=== ") == 4  # 2 docs x 2 queries, one header each
    assert "[corexpath]" in out
    assert "2.0" in out and "1.0" in out


def test_batch_subcommand_stats_output(capsys):
    code, out, err = run(
        capsys,
        "batch",
        "--xml", XML,
        "-q", "//b",
        "-q", "//b",          # duplicate: one plan-cache + one result-cache hit
        "--stats",
    )
    assert code == 0
    assert "plan cache:" in err
    assert "hits=1" in err
    assert "hit rate=50.0%" in err
    assert "result cache:" in err
    assert "axis kernels:" in err
    assert "index builds=" in err
    assert "fallback scans=" in err


def test_batch_subcommand_queries_file(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("//b\n\n# a comment\ncount(//b)\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "batch", "--xml", XML, "--queries-file", str(queries)
    )
    assert code == 0
    assert out.count("=== ") == 2  # two queries ran, the comment was skipped


def test_batch_subcommand_file_documents(tmp_path, capsys):
    path = tmp_path / "doc.xml"
    path.write_text(XML, encoding="utf-8")
    code, out, _ = run(capsys, "batch", "--file", str(path), "-q", "//b")
    assert code == 0
    assert str(path) in out


def test_batch_subcommand_malformed_query_exit_code(capsys):
    code, _, err = run(capsys, "batch", "--xml", XML, "-q", "//b[")
    assert code == 3  # EXIT_QUERY
    assert "error:" in err


def test_batch_subcommand_unparsable_query_mid_list_names_the_query(capsys):
    """A bad query after good ones fails with one line naming it, before
    any evaluation output is produced."""
    code, out, err = run(
        capsys, "batch", "--xml", XML, "-q", "//b", "-q", "//b[", "-q", "//a"
    )
    assert code == 3
    assert "'//b['" in err
    assert len(err.strip().splitlines()) == 1
    assert out == ""  # nothing evaluated or printed


def test_batch_subcommand_malformed_document_exit_code(capsys):
    code, _, err = run(capsys, "batch", "--xml", "<a><unclosed>", "-q", "//b")
    assert code == 4  # EXIT_DOCUMENT
    assert "error:" in err
    assert "xml[0]" in err  # names the offending document


def test_batch_subcommand_missing_queries_exit_code(capsys):
    code, _, err = run(capsys, "batch", "--xml", XML)
    assert code == 2
    assert "no queries" in err


def test_batch_subcommand_missing_documents_exit_code(capsys):
    code, _, err = run(capsys, "batch", "-q", "//b")
    assert code == 2
    assert "no documents" in err


def test_batch_subcommand_invalid_plan_capacity_exit_code(capsys):
    code, _, err = run(capsys, "batch", "--xml", XML, "-q", "//b", "--plan-capacity", "0")
    assert code == 2
    assert "--plan-capacity" in err


def test_batch_subcommand_forced_algorithm(capsys):
    code, out, _ = run(
        capsys, "batch", "--xml", XML, "-q", "//b", "-a", "mincontext"
    )
    assert code == 0
    assert "[mincontext]" in out


def test_batch_subcommand_fragment_violation_exit_code(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "-q", "//b[position() = 1]", "-a", "corexpath"
    )
    assert code == 5  # EXIT_FRAGMENT
    assert "Core XPath" in err


def test_batch_subcommand_unbound_variable_exit_code(capsys):
    code, _, err = run(capsys, "batch", "--xml", XML, "-q", "//b[. > $nope]")
    assert code == 3  # EXIT_QUERY: unbound variables are query errors
    assert "$nope" in err


# ----------------------------------------------------------------------
# batch subcommand: sharded execution
# ----------------------------------------------------------------------


def test_batch_subcommand_workers_thread_backend(capsys):
    sequential = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>", "-q", "//b",
        "-q", "count(//b)",
    )
    sharded = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>", "-q", "//b",
        "-q", "count(//b)", "--workers", "2",
    )
    assert sharded[0] == 0
    assert sharded[1] == sequential[1]  # identical output, batch order kept


def test_batch_subcommand_workers_stats_reports_shards(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>", "-q", "//b",
        "--workers", "2", "--shard-by", "size-balanced", "--stats",
    )
    assert code == 0
    assert "shards:       2" in err
    assert "strategy=size-balanced" in err
    assert "plan cache:" in err


def test_batch_subcommand_invalid_workers_exit_code(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "-q", "//b", "--workers", "0"
    )
    assert code == 2
    assert "--workers" in err


# ----------------------------------------------------------------------
# batch subcommand: async backend and streaming
# ----------------------------------------------------------------------


def test_batch_subcommand_async_backend_matches_sequential(capsys):
    sequential = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>", "-q", "//b",
        "-q", "count(//b)",
    )
    asynchronous = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>", "-q", "//b",
        "-q", "count(//b)", "--workers", "2", "--backend", "async",
    )
    assert asynchronous[0] == 0
    assert asynchronous[1] == sequential[1]  # identical output, batch order kept


def test_batch_subcommand_stream_prints_every_labeled_result(capsys):
    """--stream output arrives in completion order, so compare as a set
    of labeled blocks against the barrier run's."""
    barrier = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>", "-q", "//b",
        "-q", "count(//b)",
    )
    streamed = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>", "-q", "//b",
        "-q", "count(//b)", "--workers", "2", "--backend", "async", "--stream",
    )
    assert streamed[0] == 0

    def blocks(output):
        chunks = ("=== " + part for part in output.split("=== ") if part)
        return {chunk.strip() for chunk in chunks}

    assert blocks(streamed[1]) == blocks(barrier[1])
    assert len(blocks(streamed[1])) == 4  # 2 documents x 2 queries


def test_batch_subcommand_stream_stats_report_shards(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>", "-q", "//b",
        "--workers", "2", "--backend", "async", "--stream", "--stats",
    )
    assert code == 0
    assert "shards:       2" in err
    assert "backend=async --stream" in err
    assert "plan cache:" in err
    assert "result cache:" in err


def test_batch_subcommand_stream_requires_async_backend(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "-q", "//b", "--workers", "2", "--stream"
    )
    assert code == 2
    assert "--stream requires --backend async" in err


def test_batch_subcommand_stream_bad_query_exit_code(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "-q", "//b[", "--workers", "2",
        "--backend", "async", "--stream",
    )
    assert code == 3  # EXIT_QUERY: surfaced at prepare time, before streaming
    assert "//b[" in err


# ----------------------------------------------------------------------
# store subcommand and batch --snapshot-store
# ----------------------------------------------------------------------


def test_store_snapshot_then_batch_from_store(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    code, out, _ = run(
        capsys, "store", "snapshot", "--store", str(store),
        "--name", "doc", "--xml", XML,
    )
    assert code == 0
    assert "doc:" in out and "nodes" in out
    # The directory is the catalog: one file per document, none at PATH.
    assert not store.exists()
    assert len(list((tmp_path / "catalog.json.d").glob("*.snap"))) == 1
    code, out, _ = run(
        capsys, "batch", "--snapshot-store", str(store), "-q", "//b",
    )
    assert code == 0
    assert "=== store:doc :: //b" in out
    assert "/a[1]/b[1]" in out and "/a[1]/b[2]" in out


def test_store_snapshot_matches_direct_parse_answers(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    run(capsys, "store", "snapshot", "--store", str(store), "--name", "d", "--xml", XML)
    _, direct, _ = run(capsys, "count(//b)", "--xml", XML)
    _, snapped, _ = run(
        capsys, "batch", "--snapshot-store", str(store), "-q", "count(//b)",
    )
    assert direct.strip() in snapped


def test_store_list_shows_catalog(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    run(capsys, "store", "snapshot", "--store", str(store), "--name", "one", "--xml", XML)
    run(capsys, "store", "snapshot", "--store", str(store), "--name", "two", "--xml", "<r/>")
    code, out, _ = run(capsys, "store", "list", "--store", str(store))
    assert code == 0
    lines = out.splitlines()
    assert [line.split("\t")[:2] for line in lines] == [
        ["one", "snapshot v3"],
        ["two", "snapshot v3"],
    ]
    # Per-document sizes: what lazy loading keeps resident vs the disk blob.
    for line in lines:
        assert "nodes=" in line and "disk=" in line and "columns=" in line
        assert "partitions=" in line
    assert "nodes=2" in lines[1]  # <r/> is a document node plus one element


def test_store_snapshot_requires_name_and_document(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    code, _, err = run(capsys, "store", "snapshot", "--store", str(store), "--xml", XML)
    assert code == 2
    assert "--name" in err
    code, _, err = run(capsys, "store", "snapshot", "--store", str(store), "--name", "d")
    assert code == 2
    assert "--xml or --file" in err


def test_store_snapshot_malformed_document_exit_code(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    code, _, err = run(
        capsys, "store", "snapshot", "--store", str(store),
        "--name", "bad", "--xml", "<a><b></a>",
    )
    assert code == 4  # EXIT_DOCUMENT
    assert "error:" in err
    assert not store.exists()


def test_batch_snapshot_store_doc_selects_named_documents(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    run(capsys, "store", "snapshot", "--store", str(store), "--name", "one", "--xml", XML)
    run(capsys, "store", "snapshot", "--store", str(store), "--name", "two", "--xml", "<r/>")
    code, out, _ = run(
        capsys, "batch", "--snapshot-store", str(store), "--doc", "one",
        "-q", "count(//b)",
    )
    assert code == 0
    assert "store:one" in out
    assert "store:two" not in out


def test_batch_snapshot_store_missing_document_exit_code(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    run(capsys, "store", "snapshot", "--store", str(store), "--name", "one", "--xml", XML)
    code, _, err = run(
        capsys, "batch", "--snapshot-store", str(store), "--doc", "ghost", "-q", "//b",
    )
    assert code == 6  # DocumentStoreError -> EXIT_STORE
    assert "ghost" in err


def test_batch_doc_without_snapshot_store_is_usage_error(capsys):
    code, _, err = run(capsys, "batch", "--xml", XML, "--doc", "x", "-q", "//b")
    assert code == 2
    assert "--doc requires --snapshot-store" in err


def test_batch_snapshot_store_corrupt_sidecar_exit_code(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    run(capsys, "store", "snapshot", "--store", str(store), "--name", "doc", "--xml", XML)
    sidecar_dir = tmp_path / "catalog.json.d"
    (sidecar,) = sidecar_dir.iterdir()
    sidecar.write_bytes(b"garbage")
    code, _, err = run(capsys, "batch", "--snapshot-store", str(store), "-q", "//b")
    assert code == 6  # SnapshotCorruptError -> EXIT_STORE
    assert "error:" in err


def test_batch_snapshot_store_stats_count_adoptions(tmp_path, capsys):
    store = tmp_path / "catalog.json"
    run(capsys, "store", "snapshot", "--store", str(store), "--name", "doc", "--xml", XML)
    code, _, err = run(
        capsys, "batch", "--snapshot-store", str(store), "-q", "//b", "--stats",
    )
    assert code == 0
    assert "axis kernels:" in err
    assert "adoptions=" in err
    # The store's own counters ride the same block, only with a store.
    (store_line,) = [line for line in err.splitlines() if line.startswith("store:")]
    assert "opens=" in store_line and "structural_checks=" in store_line
    _, _, err = run(capsys, "batch", "--xml", XML, "-q", "//b", "--stats")
    assert "store:" not in err


def test_query_literally_named_store_stays_reachable(capsys):
    code, out, _ = run(capsys, "--xml", "<store><a/></store>", "store")
    assert code == 0
    assert out.strip() == "/store[1]"


# ----------------------------------------------------------------------
# Batch-shared step DAG: plan --explain-batch and batch --share/--no-share
# ----------------------------------------------------------------------


def test_plan_subcommand_explain_batch_prints_the_dag(capsys):
    code, out, _ = run(
        capsys, "plan", "--explain-batch", "//b/c", "//b/d", "count(//b)"
    )
    assert code == 0
    assert "batch plan: 3 plan(s), 2 sharable, 2 shared" in out
    assert "prefix[0]: /descendant-or-self::node()" in out
    assert "base=prefix[" in out
    assert "independent (not a sharable absolute location path)" in out


def test_plan_subcommand_explain_batch_single_query(capsys):
    code, out, _ = run(capsys, "plan", "--explain-batch", "//b")
    assert code == 0
    assert "batch plan: 1 plan(s)" in out
    assert "0 materialized prefix(es)" in out


def test_plan_subcommand_multiple_queries_require_explain_batch(capsys):
    code, _, err = run(capsys, "plan", "//b", "//c")
    assert code == 2
    assert "multiple queries require --explain-batch" in err


def test_plan_subcommand_explain_batch_names_the_bad_query(capsys):
    code, _, err = run(capsys, "plan", "--explain-batch", "//b", "//c[")
    assert code == 3
    assert "'//c['" in err


def test_batch_subcommand_stats_report_batch_plan(capsys):
    code, _, err = run(
        capsys,
        "batch",
        "--xml", XML,
        "-q", "//b/text()",
        "-q", "//b",
        "--stats",
    )
    assert code == 0
    assert "batch plan:" in err
    assert "prefixes=2" in err
    assert "shared plans=2/2" in err
    assert "steps saved=" in err


def test_batch_subcommand_no_share_matches_shared_output(capsys):
    shared = run(capsys, "batch", "--xml", XML, "-q", "//b", "-q", "//b/text()")
    unshared = run(
        capsys, "batch", "--xml", XML, "-q", "//b", "-q", "//b/text()",
        "--no-share",
    )
    assert unshared[0] == 0
    assert unshared[1] == shared[1]


def test_batch_subcommand_no_share_stats_omit_batch_plan(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "-q", "//b", "-q", "//b/text()",
        "--no-share", "--stats",
    )
    assert code == 0
    assert "batch plan:" not in err
    assert "plan cache:" in err


def test_batch_subcommand_forced_algorithm_stats_omit_batch_plan(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "-q", "//b", "-q", "//b/text()",
        "--algorithm", "mincontext", "--stats",
    )
    assert code == 0
    assert "batch plan:" not in err


def test_batch_subcommand_workers_stats_report_merged_batch_plan(capsys):
    code, _, err = run(
        capsys, "batch", "--xml", XML, "--xml", "<a><b>30</b></a>",
        "-q", "//b", "-q", "//b/text()", "--workers", "2", "--stats",
    )
    assert code == 0
    assert "shards:       2" in err
    assert "batch plan:" in err

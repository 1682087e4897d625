"""EXP-F4/EXP-F5 — regenerate the Figure 4 and Figure 5 tables.

Regenerates the context-value tables of the running example (query ``e``
of Section 2.4 on the Figure 2 document): the full tables of the
top-down semantics E↓ (Figure 4) and the relevant-context-restricted
tables MINCONTEXT keeps (Figure 5), then times both algorithms on the
query with pytest-benchmark.
"""

from harness import ExperimentReport

from repro.core.context import Context
from repro.core.mincontext import MinContextEvaluator
from repro.core.topdown import TopDownEvaluator
from repro.workloads.documents import running_example_document
from repro.workloads.queries import running_example_query
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance

#: Figure 4's N3 table, for verification row-by-row.
EXPECTED_N3 = {
    ("11", 1, 8): False, ("12", 2, 8): False, ("13", 3, 8): False,
    ("14", 4, 8): True, ("21", 5, 8): True, ("22", 6, 8): True,
    ("23", 7, 8): True, ("24", 8, 8): True, ("12", 1, 3): False,
    ("13", 2, 3): True, ("14", 3, 3): True, ("22", 1, 3): False,
    ("23", 2, 3): True, ("24", 3, 3): True,
}


def _prepare():
    document = running_example_document()
    ast = normalize(parse_xpath(running_example_query()))
    compute_relevance(ast)
    return document, ast


def bench_figure4_tables_regenerate(benchmark):
    document, ast = _prepare()

    def run():
        evaluator = TopDownEvaluator(document)
        return evaluator.trace_tables(ast, Context(document.root, 1, 1))

    tables = benchmark(run)

    report = ExperimentReport("EXP-F4", "Figure 4 context-value tables (E↓)")
    predicate = ast.steps[1].predicates[0]
    rows = []
    regenerated = {}
    for context, value in tables[predicate.uid]:
        key = (context.node.xml_id, context.position, context.size)
        regenerated[key] = value
        rows.append([f"x{key[0]}", key[1], key[2], "true" if value else "false"])
    report.note("table(N3) — predicate of the second location step:")
    report.table(["cn", "cp", "cs", "res"], rows)
    assert regenerated == EXPECTED_N3, "Figure 4 N3 table mismatch"
    report.note("")
    report.note("row-by-row identical to the paper's Figure 4 ✓")
    report.finish()


def bench_figure5_restricted_tables(benchmark):
    document, ast = _prepare()

    def run():
        evaluator = MinContextEvaluator(document)
        result = evaluator.evaluate(ast, Context(document.root, 1, 1))
        return evaluator, result

    evaluator, result = benchmark(run)
    assert sorted(n.xml_id for n in result) == ["13", "14", "21", "22", "23", "24"]

    report = ExperimentReport(
        "EXP-F5", "Figure 5 tables restricted to the relevant context (MINCONTEXT)"
    )
    predicate = ast.steps[1].predicates[0]
    n5 = predicate.right
    rows = [
        [f"x{key[0].xml_id}", "true" if value else "false"]
        for key, value in sorted(
            evaluator.boxed_table(n5).items(), key=lambda kv: kv[0][0].pre
        )
    ]
    report.note("table(N5: self::* = 100) — keyed by cn only (8 rows, not 14):")
    report.table(["cn", "res"], rows)
    report.note("")
    report.note("x24 is true (paper's Figure 5 misprints 'false'; Figure 4's own")
    report.note("row ⟨x24,8,8⟩ and strval(x24)='100' both say true).")
    n_tables = len(evaluator.tables)
    total_rows = sum(len(t) for t in evaluator.tables.values())
    report.note(f"tables stored: {n_tables}; total rows: {total_rows} "
                f"(cp/cs-dependent nodes N3,N4,N6,N7 are never tabulated)")
    assert predicate.uid not in evaluator.tables
    report.finish()

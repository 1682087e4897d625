"""Replay of the paper's worked examples (Figures 2-6, Examples 3-5 and 9).

Run:  python examples/paper_walkthrough.py

Prints, in order:
  1. the Figure 2 sample document and its dom;
  2. the Figure 3 parse tree of query e with static types and Relev(N)
     (Example 3);
  3. the Figure 4 context-value tables produced by top-down evaluation;
  4. the Figure 5 relevant-context-restricted tables MINCONTEXT stores
     (note the corrected x24 row — see EXPERIMENTS.md);
  5. Example 4's outermost node sets;
  6. Example 9's OPTMINCONTEXT run with the backward-propagation steps.
"""

from repro.core.bottomup_paths import eval_bottomup_path, propagate_path_backwards
from repro.core.common import box_value
from repro.core.context import Context
from repro.core.mincontext import MinContextEvaluator
from repro.core.topdown import TopDownEvaluator
from repro.engine import XPathEngine
from repro.workloads.documents import RUNNING_EXAMPLE_XML, running_example_document
from repro.workloads.queries import example9_query, running_example_query
from repro.xpath.fragments import find_bottomup_paths
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance
from repro.xpath.unparse import dump_tree, unparse


def label(node):
    return f"x{node.xml_id}" if node.xml_id else (node.kind.value)


def node_set(nodes):
    return "{" + ", ".join(label(n) for n in sorted(nodes, key=lambda n: n.pre)) + "}"


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    document = running_example_document()
    engine = XPathEngine(document)

    banner("Figure 2: the sample XML document")
    print(RUNNING_EXAMPLE_XML)
    print("dom (elements):", ", ".join(f"x{e.xml_id}" for e in document.elements()))

    banner("Figure 3 / Example 3: parse tree of e with Relev(N)")
    query_e = running_example_query()
    print("e ≡", query_e)
    ast = normalize(parse_xpath(query_e))
    compute_relevance(ast)
    print(dump_tree(ast))

    banner("Figure 4: context-value tables (top-down evaluation E↓)")
    evaluator = TopDownEvaluator(document)
    tables = evaluator.trace_tables(ast, Context(document.root, 1, 1))
    predicate = ast.steps[1].predicates[0]
    named = {
        "N3 (or)": predicate,
        "N4 (position() > last()*0.5)": predicate.left,
        "N5 (self::* = 100)": predicate.right,
    }
    for name, node in named.items():
        print(f"\n  table({name}):  [{unparse(node)}]")
        print("     cn   cp  cs   res")
        for context, value in tables[node.uid]:
            rendered = "true" if value is True else "false" if value is False else value
            print(
                f"    {label(context.node):>4}  {context.position:>3} {context.size:>3}   {rendered}"
            )

    banner("Figure 5: MINCONTEXT's tables, restricted to the relevant context")
    mc = MinContextEvaluator(document)
    result = mc.evaluate(ast, Context(document.root, 1, 1))
    n5 = predicate.right
    n8, n9 = n5.left, n5.right
    print("\n  table(N5: self::* = 100)  — keyed by cn only")
    for key, value in sorted(mc.boxed_table(n5).items(), key=lambda kv: kv[0][0].pre):
        print(f"    {label(key[0]):>4}  {'true' if value else 'false'}")
    print("  (x24 is true — Figure 5 prints 'false', contradicting Figure 4's")
    print("   own row ⟨x24, 8, 8⟩; strval(x24) = '100'. See EXPERIMENTS.md.)")
    print("\n  table(N8: self::*)")
    for key, value in sorted(mc.boxed_table(n8).items(), key=lambda kv: kv[0][0].pre):
        print(f"    {label(key[0]):>4}  {node_set(value)}")
    print("\n  table(N9: 100) — a single row, no context at all")
    print("    ", mc.boxed_table(n9))
    print("\n  Nodes N3, N4, N6, N7 are never tabulated: MINCONTEXT loops")
    print("  over (cp, cs) instead (Example 5).")

    banner("Example 4: the outermost location path as plain node sets")
    mc2 = MinContextEvaluator(document)
    first = mc2._eval_step_from_set(ast.steps[0], [document.root.pre], ast.steps[0].axis)
    print("X after /descendant::*      =", node_set(box_value(document, first, "nset")))
    second = mc2._eval_step_from_set(ast.steps[1], first, ast.steps[1].axis)
    print("Y after descendant::*[...]  =", node_set(box_value(document, second, "nset")))
    print("final result of e           =", node_set(result))

    banner("Example 9: OPTMINCONTEXT on Q (Figure 6)")
    query_q = example9_query()
    print("Q ≡", query_q)
    ast_q = normalize(parse_xpath(query_q))
    compute_relevance(ast_q)
    print("\nParse tree:")
    print(dump_tree(ast_q))

    mc3 = MinContextEvaluator(document)
    bottomup = find_bottomup_paths(ast_q)
    print(f"\nBottom-up location paths found (innermost first): {len(bottomup)}")
    for node in bottomup:
        print("  •", unparse(node))

    # ρ = preceding-sibling::*/preceding::* compared with 100.
    rho = bottomup[0]
    rho_path = rho.left if hasattr(rho.left, "steps") else rho.right
    initial = [n for n in document.nodes if n.is_element and n.string_value == "100"]
    print("\nBackward propagation for ρ = 100:")
    print("  initial Y (strval = 100):        ", node_set(initial))
    # The evaluators work on pre numbers; box at the read-out.
    initial = [n.pre for n in initial]
    after_preceding = box_value(
        document, propagate_path_backwards(mc3, _tail(rho_path, 1), initial), "nset"
    )
    after_preceding_elements = {n for n in after_preceding if n.is_element}
    print("  after preceding⁻¹ = following:   ", node_set(after_preceding_elements))
    print("    (plus the text/attribute nodes in the same region; the")
    print("     paper's dom lists only the elements)")
    full = box_value(document, propagate_path_backwards(mc3, rho_path, initial), "nset")
    print("  after preceding-sibling⁻¹:       ", node_set(full))

    for node in bottomup:
        eval_bottomup_path(mc3, node)
    boolean_pi = bottomup[1]
    X = {
        key[0]
        for key, value in mc3.boxed_table(boolean_pi).items()
        if value and key[0].is_element
    }
    print("\nboolean(π) true exactly at X =", node_set(X))

    final = mc3.evaluate(ast_q, Context(document.root, 1, 1))
    print("final result of Q            =", node_set(final))
    assert sorted(n.xml_id for n in final) == ["11", "12", "13", "14", "22"]
    print("\n✓ matches the paper: {x11, x12, x13, x14, x22}")


def _tail(path, keep_last):
    """A copy of `path` keeping only the last `keep_last` steps (for
    showing intermediate propagation stages)."""
    from repro.xpath.ast import Path

    clone = Path(absolute=False, steps=list(path.steps[-keep_last:]))
    clone.value_type = "nset"
    clone.relev = path.relev
    for step in clone.steps:
        step.relev = frozenset({"cn"})
    return clone


if __name__ == "__main__":
    main()

"""Turn ASTs back into XPath strings, and render parse trees.

``unparse`` produces a valid, re-parseable query string (used in error
messages, the CLI, and round-trip tests). ``dump_tree`` renders the parse
tree with per-node annotations in the style of the paper's Figures 3/6
node tables (node id, subexpression, static type, ``Relev``).
"""

from __future__ import annotations

from repro.values.numbers import number_to_string
from repro.xpath.ast import (
    BINARY_PRECEDENCE,
    AstNode,
    BinaryOp,
    ConstantNodeSet,
    Expr,
    FunctionCall,
    Negate,
    NodeTest,
    NumberLiteral,
    Path,
    Step,
    StringLiteral,
    Union,
    VariableRef,
)

# Precedence levels above the binary operators; higher binds tighter.
_UNARY_PRECEDENCE = 7
_UNION_PRECEDENCE = 8
_LEAF_PRECEDENCE = 9


def _precedence(expr: Expr) -> int:
    if isinstance(expr, BinaryOp):
        return BINARY_PRECEDENCE[expr.op]
    if isinstance(expr, Negate):
        return _UNARY_PRECEDENCE
    if isinstance(expr, Union):
        return _UNION_PRECEDENCE
    return _LEAF_PRECEDENCE


def _child(expr: Expr, parent_precedence: int, right_side: bool = False) -> str:
    text = unparse(expr)
    child_precedence = _precedence(expr)
    if child_precedence < parent_precedence or (
        right_side and child_precedence == parent_precedence
    ):
        return f"({text})"
    return text


def node_test_to_string(test: NodeTest) -> str:
    if test.kind == "name":
        return test.name or "?"
    if test.kind == "wildcard":
        return "*"
    if test.kind == "node":
        return "node()"
    if test.kind == "text":
        return "text()"
    if test.kind == "comment":
        return "comment()"
    if test.kind == "pi":
        if test.name is None:
            return "processing-instruction()"
        return f"processing-instruction('{test.name}')"
    raise ValueError(f"unknown node test {test!r}")


def step_to_string(step: Step) -> str:
    predicates = "".join(f"[{unparse(p)}]" for p in step.predicates)
    return f"{step.axis}::{node_test_to_string(step.node_test)}{predicates}"


def unparse(expr: Expr) -> str:
    """Render an AST as unabbreviated XPath 1.0 text."""
    if isinstance(expr, NumberLiteral):
        return number_to_string(expr.value)
    if isinstance(expr, StringLiteral):
        if "'" in expr.value:
            return f'"{expr.value}"'
        return f"'{expr.value}'"
    if isinstance(expr, VariableRef):
        return f"${expr.name}"
    if isinstance(expr, ConstantNodeSet):
        return f"$<node-set:{len(expr.nodes)}>"
    if isinstance(expr, FunctionCall):
        args = ", ".join(unparse(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Negate):
        return f"-{_child(expr.operand, _UNARY_PRECEDENCE)}"
    if isinstance(expr, BinaryOp):
        level = BINARY_PRECEDENCE[expr.op]
        left = _child(expr.left, level)
        right = _child(expr.right, level, right_side=True)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, Union):
        left = _child(expr.left, _UNION_PRECEDENCE)
        right = _child(expr.right, _UNION_PRECEDENCE, right_side=True)
        return f"{left} | {right}"
    if isinstance(expr, Path):
        return _unparse_path(expr)
    raise ValueError(f"cannot unparse {expr!r}")


def _unparse_path(path: Path) -> str:
    steps = "/".join(step_to_string(s) for s in path.steps)
    if path.primary is not None:
        primary = unparse(path.primary)
        if not isinstance(path.primary, (FunctionCall, ConstantNodeSet)):
            primary = f"({primary})"
        predicates = "".join(f"[{unparse(p)}]" for p in path.primary_predicates)
        if steps:
            return f"{primary}{predicates}/{steps}"
        return f"{primary}{predicates}"
    if path.absolute:
        return f"/{steps}" if steps else "/"
    return steps


def dump_tree(expr: Expr, indent: str = "") -> str:
    """Multi-line parse-tree rendering with annotations.

    Mirrors the node tables accompanying Figures 3 and 6: each line shows
    the node id (``N<uid>``), the subexpression, its static type, and
    ``Relev`` when computed.
    """
    lines: list[str] = []
    _dump(expr, indent, lines)
    return "\n".join(lines)


def _dump(node: AstNode, indent: str, lines: list[str]) -> None:
    if isinstance(node, Step):
        label = step_to_string(node)
    else:
        label = unparse(node)  # type: ignore[arg-type]
    annotations = []
    if node.value_type is not None:
        annotations.append(node.value_type)
    if node.relev is not None:
        inside = ", ".join(sorted(node.relev)) if node.relev else "∅"
        annotations.append(f"Relev={{{inside}}}" if node.relev else "Relev=∅")
    suffix = f"  [{'; '.join(annotations)}]" if annotations else ""
    lines.append(f"{indent}N{node.uid}: {label}{suffix}")
    for child in node.children():
        _dump(child, indent + "    ", lines)

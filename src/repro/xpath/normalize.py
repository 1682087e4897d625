"""Normalization and static analysis: the front end's one pass after the
parser.

The paper's semantics (and all four evaluation algorithms) assume a
*normalized* parse tree:

1. **Variables are gone** — "each variable is replaced by the (constant)
   value of the input variable binding".
2. **All type conversions are explicit** — ``boolean()``, ``number()``,
   ``string()`` calls appear wherever XPath 1.0's implicit conversion
   rules would fire: predicate truth tests, and/or operands, arithmetic
   operands, and function arguments per signature. A numeric predicate
   ``[e]`` becomes ``[position() = e]`` (W3C §2.4).
3. **``id`` chains over node-sets are axis steps** — Section 4's rewrite
   of ``id(id(...(π)...))`` to ``π/id/id/.../id``, treating ``id`` as a
   pseudo-axis. ``id(s)`` for scalar ``s`` stays a function call.
4. **Unions are lifted out of existential positions** —
   ``boolean(π1|π2)`` → ``boolean(π1) or boolean(π2)`` and
   ``(π1|π2) RelOp s`` → ``(π1 RelOp s) or (π2 RelOp s)``, as assumed by
   ``propagate_path_backwards`` ("we assume w.l.o.g. that all occurrences
   of '|' have been removed").

:func:`analyze` establishes them and, in the same visit of each node,
derives everything later stages read about the tree: the node's static
``value_type`` and its ``Relev`` set (the rules of Section 3.1, stated in
:mod:`repro.xpath.relevance`), and for its subtree an :class:`Analysis`:
the canonical text (what :func:`~repro.xpath.unparse.unparse` renders,
built from the children's texts), the Core XPath and Extended Wadler
verdicts (the rules of :mod:`repro.xpath.fragments`) and the
:class:`Counts` the planner's ``PlanTraits`` and bottom-up path count
are read from. Each step gets a :class:`StepSummary`: all the batch
planner needs to describe any prefix of an absolute path.
:func:`repro.xpath.fragments.core_xpath_violation` stays a walk of its
own, the reference the Core verdicts here are tested against.

Children are visited before their parent, in post-order on an explicit
stack, so no Python recursion follows the tree's height. The parser
bounds nesting (:data:`repro.xpath.parser.MAX_DEPTH`) but not operator
chains, and the evaluators recurse: a tree more than
:data:`MAX_HEIGHT` nodes tall is an :class:`~repro.errors.XPathSyntaxError`.

Only :meth:`QueryPlanner.compile <repro.service.planner.QueryPlanner.compile>`
passes ``steps``, the steps its memo gave the parser: the pass takes a
hit's summary and does not revisit its predicates, and leaves every other
step's summary in ``steps.summaries``. The planner memoizes no query long
enough to pass :data:`MAX_HEIGHT`, so a hit never needs that check.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import UnboundVariableError, XPathSyntaxError, XPathTypeError
from repro.functions.library import FUNCTION_LIBRARY, signature_for
from repro.xpath.ast import (
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
    clone,
)
from repro.xpath.fragments import (
    FILTER_PRIMARY,
    ID_AXIS,
    NON_CORE_PREDICATE,
    NOT_A_PATH,
    R1_DATA_CONVERSIONS,
    R1_NAME_ACCESSORS,
    R1_STRING_MEASURES,
    is_bottomup_eligible,
)
from repro.xpath.unparse import binary_text, leaf_text, negate_text, node_test_to_string

#: The tallest tree :func:`analyze` accepts, in nodes from the root to
#: the deepest leaf: every operator chain the recursive passes it
#: replaced could compile fits, and the evaluators, which recurse, stay
#: clear of the interpreter's limit.
MAX_HEIGHT = 500

_ARITHMETIC_OPS = frozenset({"+", "-", "*", "div", "mod"})
_COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})
_BOOLEAN_OPS = frozenset({"and", "or"})
_CONVERSION_FUNCTIONS = {"bool": "boolean", "num": "number", "str": "string"}
_LEAF_TYPES = {NumberLiteral: "num", StringLiteral: "str", ConstantNodeSet: "nset"}

_EMPTY: frozenset[str] = frozenset()
_CN: frozenset[str] = frozenset({"cn"})
_CPCS: frozenset[str] = frozenset({"cp", "cs"})
#: ``Relev`` of the calls whose set does not depend on their arguments.
_FIXED_RELEV = {"position": frozenset({"cp"}), "last": frozenset({"cs"}),
                "true": _EMPTY, "false": _EMPTY}
_CONTEXT_NODE_FUNCTIONS = frozenset(
    name for name, sig in FUNCTION_LIBRARY.items() if sig.context_node_dependent
)
#: Sibling axes whose positional predicates loop over sibling runs: the
#: price's loop width is then the document's fanout per node
#: (:func:`repro.service.cost.positional_loop_width`).
_SIBLING_AXES = frozenset({"following-sibling", "preceding-sibling"})
#: Definition 12: why a node of each kind is outside Core XPath as a
#: predicate (and/or, not() and boolean() decide on their operands).
_NON_CORE = {
    kind: NON_CORE_PREDICATE.format(kind.__name__)
    for kind in (NumberLiteral, StringLiteral, ConstantNodeSet, FunctionCall,
                 BinaryOp, Negate, Union, Path)
}
# Restriction 2: why a node-set is outside the fragment where a scalar
# is needed.
_NON_EXISTENTIAL = {
    Path: "location path in a non-existential position (Restriction 2)",
    Union: "union in a non-existential position",
    ConstantNodeSet: "constant node-set in a non-existential position",
}


class Counts(NamedTuple):
    """The five counters of a subtree that a plan's ``PlanTraits`` (the
    price's ``|Q|`` and loop-width flags) and its bottom-up path count
    are read from. The pass carries them packed into one int, 32 bits
    apiece, so that adding a child's counts to its parent's is one
    addition (``_NODE``, ``_BOTTOMUP`` and so on are one unit of each)."""

    #: Parse-tree nodes, steps included.
    size: int
    #: Subexpressions OPTMINCONTEXT evaluates bottom-up.
    bottomup: int
    #: ``position()`` / ``last()`` calls, the only origin of ``cp`` /
    #: ``cs`` in a ``Relev`` set.
    positions: int
    #: Sibling-axis steps with a position-dependent predicate.
    siblings: int
    #: Embedded :class:`ConstantNodeSet` nodes.
    constants: int

    @classmethod
    def unpack(cls, packed: int) -> Counts:
        return cls._make([packed >> 32 * field & 0xFFFFFFFF for field in range(5)])


_NODE, _BOTTOMUP, _POSITION, _SIBLING, _CONSTANT = (1 << 32 * field for field in range(5))
#: The counts of a call, before its arguments' are added.
_CALL_COUNTS = {"position": _NODE + _POSITION, "last": _NODE + _POSITION}


class StepSummary(NamedTuple):
    """One location step, as :func:`analyze` saw it: its canonical text
    (the batch planner's step key), why it puts a path outside Core XPath
    and why it violates Restrictions 1–3 (None: it does not), and the
    counts of the step and its predicates."""

    key: str
    core: str | None
    wadler: str | None
    counts: int


class Analysis(NamedTuple):
    """A normalized, annotated (sub)tree: its canonical text; why it is
    outside Core XPath (a path as a location path, any other node as a
    predicate; for a whole query, as a query) and why it violates
    Restrictions 1–3 in an existential position; its packed counts;
    and, for an absolute location path, one summary per step."""

    ast: Expr
    text: str
    core: str | None
    wadler: str | None
    counts: int
    steps: tuple[StepSummary, ...] = ()


def analyze(
    expr: Expr,
    variables: dict[str, object] | None = None,
    *,
    normalized: bool = False,
    strict: bool = False,
    steps=None,
) -> Analysis:
    """Normalize a freshly parsed expression (see the module docstring)
    and analyze it, in one visit per node.

    Args:
        expr: AST from :func:`repro.xpath.parser.parse_xpath` (the
            result shares mutated nodes with it — reparse rather than
            reuse the raw AST).
        variables: variable bindings (``$x`` values): Python
            bool/float/str or an iterable of nodes.
        normalized: ``expr`` is already normalized (a tree the batch
            planner assembled): analyze only.
            An unsubstituted variable is then an
            :class:`~repro.errors.XPathTypeError`.
        strict: apply Restriction 1 literally (see
            :func:`repro.xpath.fragments.wadler_violation`).
        steps: the step-memo view the parser was given (see the module
            docstring).
    """
    root = _Pass(variables, normalized, strict, steps).tree(expr)
    node, counts = root.ast, root.counts
    core = root.core if type(node) is Path else NOT_A_PATH.format(type(node).__name__)
    if is_bottomup_eligible(node):
        counts -= _BOTTOMUP  # a whole query is never its own bottom-up subexpression
    return Analysis(node, root.text, core, root.wadler, counts, root.steps)


def normalize(expr: Expr, variables: dict[str, object] | None = None) -> Expr:
    """The normalized, statically typed AST of :func:`analyze`."""
    return analyze(expr, variables).ast


def prefix_analysis(ast: Path, steps: tuple[StepSummary, ...]) -> Analysis:
    """The analysis of an absolute path whose steps were analyzed before
    (a batch planner's prefix of a plan), read off their summaries."""
    ast.value_type, ast.relev = "nset", _CN
    return _steps_analysis(ast, steps)


# ----------------------------------------------------------------------
# Analyses of one node, over its (normalized) children's
# ----------------------------------------------------------------------


def _first(verdicts) -> str | None:
    return next(filter(None, verdicts), None)


def _as_predicate(analysis: Analysis) -> str | None:
    """Definition 12's verdict on a node in a predicate position."""
    return _NON_CORE[Path] if type(analysis.ast) is Path else analysis.core


def _scalar(analysis: Analysis) -> str | None:
    """Restrictions 1–3 on a node in a position that needs a scalar."""
    return _NON_EXISTENTIAL.get(type(analysis.ast)) or analysis.wadler


def _path_test(call: FunctionCall, path: Analysis) -> Analysis:
    """``boolean(π)``: the call nearly every predicate gets. π's
    canonical text becomes its ``key``, under which a document session
    memoizes where π holds."""
    path.ast.key = path.text
    call.relev = path.ast.relev
    counts = _NODE + path.counts
    if is_bottomup_eligible(call):
        counts += _BOTTOMUP
    return Analysis(call, f"boolean({path.text})", path.core, path.wadler, counts)


def _call(call: FunctionCall, args: list[Analysis], strict: bool) -> Analysis:
    name = call.name
    if name == "boolean" and len(args) == 1 and type(args[0].ast) is Path:
        return _path_test(call, args[0])
    fixed = _FIXED_RELEV.get(name)
    relev = fixed if fixed is not None else _CN if name in _CONTEXT_NODE_FUNCTIONS else _EMPTY
    counts = _CALL_COUNTS.get(name, _NODE)
    for arg in args:
        counts += arg.counts
        if fixed is None:
            relev = relev | arg.ast.relev
    call.relev = relev
    core = _NON_CORE[FunctionCall]
    if name == "not" and len(args) == 1:
        core = _as_predicate(args[0])
    elif name == "boolean" and len(args) == 1:
        core = NOT_A_PATH.format(type(args[0].ast).__name__)
    text = f"{name}({', '.join([arg.text for arg in args])})"
    return Analysis(call, text, core, _wadler_call(name, args, strict), counts)


def _wadler_call(name: str, args: list[Analysis], strict: bool) -> str | None:
    if name == "count" or name == "sum":
        return f"{name}() is not allowed (Restriction 2)"
    if name in R1_NAME_ACCESSORS:
        return f"{name}() selects document data (Restriction 1)"
    if strict and name in R1_STRING_MEASURES:
        return f"{name}() is banned under the strict reading of Restriction 1"
    if args:
        arg = args[0].ast
        if name in R1_DATA_CONVERSIONS and arg.value_type == "nset":
            return f"{name}() applied to a node-set selects document data (Restriction 1)"
        if name == "boolean" and len(args) == 1 and arg.value_type == "nset":
            return args[0].wadler
        if name == "id":
            if arg.value_type != "nset" and arg.relev:
                return "id(s) where s depends on the context (Restriction 3)"
            return args[0].wadler
    return _first(map(_scalar, args))


def _binary(node: BinaryOp, left: Analysis, right: Analysis) -> Analysis:
    op = node.op
    left_type, right_type = left.ast.value_type, right.ast.value_type
    node.relev = left.ast.relev | right.ast.relev
    core = _NON_CORE[BinaryOp]
    counts = _NODE + left.counts + right.counts
    if op in _BOOLEAN_OPS:
        core = _as_predicate(left) or _as_predicate(right)
        wadler = _scalar(left) or _scalar(right)
    elif op in _COMPARISON_OPS and (left_type == "nset" or right_type == "nset"):
        if is_bottomup_eligible(node):
            counts += _BOTTOMUP
        nset, scalar = (left, right) if left_type == "nset" else (right, left)
        if left_type == right_type:
            wadler = "nset RelOp nset comparison (Restriction 2)"
        elif scalar.ast.relev:
            wadler = "nset RelOp scalar where the scalar depends on the context (Restriction 2)"
        else:
            wadler = nset.wadler or _scalar(scalar)
    else:
        wadler = _scalar(left) or _scalar(right)
    text = binary_text(node, left.text, right.text)
    return Analysis(node, text, core, wadler, counts)


def _step(step: Step, predicates: list[Analysis]) -> StepSummary:
    axis = step.axis
    text = f"{axis}::{node_test_to_string(step.node_test)}"
    core = ID_AXIS if axis == "id" else None
    wadler = None
    counts = _NODE
    if predicates:
        text += "".join(f"[{predicate.text}]" for predicate in predicates)
        core = core or _first(map(_as_predicate, predicates))
        wadler = _first(map(_scalar, predicates))
        if axis in _SIBLING_AXES and any(
            not predicate.ast.relev.isdisjoint(_CPCS) for predicate in predicates
        ):
            counts += _SIBLING
        counts += sum([predicate.counts for predicate in predicates])
    return StepSummary(text, core, wadler, counts)


def _steps_analysis(path: Path, steps: tuple[StepSummary, ...]) -> Analysis:
    """A primary-less path's analysis over its steps' summaries."""
    core = wadler = None
    for step in steps:
        core = core or step.core
        wadler = wadler or step.wadler
    text = "/".join([step.key for step in steps])
    return Analysis(
        path,
        "/" + text if path.absolute else text,
        core,
        wadler,
        _NODE + sum([step.counts for step in steps]),
        steps if path.absolute else (),
    )


def _convert(analysis: Analysis, to_type: str) -> Analysis:
    """Wrap the node in an explicit conversion call if its type differs."""
    node = analysis.ast
    if node.value_type == to_type:
        return analysis
    if to_type == "nset":
        raise XPathTypeError(f"a {node.value_type} expression cannot be converted to a node-set")
    call = _typed(FunctionCall(_CONVERSION_FUNCTIONS[to_type], [node]), to_type)
    return _call(call, [analysis], False)


def _typed(node: Expr, value_type: str) -> Expr:
    node.value_type = value_type
    return node


def _lift_comparison(op: str, left: Expr, right: Expr) -> Expr:
    """``(π1|π2) RelOp e`` → ``(π1 RelOp e) or (π2 RelOp e)`` (both
    sides checked). Sound because node-set comparisons are existential
    over the set, and a union is the union of its branches; the side
    that goes into both branches is cloned."""
    if type(left) is Union:
        first = _lift_comparison(op, left.left, right)
        return _typed(BinaryOp("or", first, _lift_comparison(op, left.right, clone(right))), "bool")
    if type(right) is Union:
        first = _lift_comparison(op, left, right.left)
        return _typed(BinaryOp("or", first, _lift_comparison(op, clone(left), right.right)), "bool")
    return _typed(BinaryOp(op, left, right), "bool")


def _lift_boolean(call: Expr) -> Expr:
    """``boolean(π1|π2)`` → ``boolean(π1) or boolean(π2)``."""
    if type(call) is not FunctionCall or call.name != "boolean" or type(call.args[0]) is not Union:
        return call
    union = call.args[0]
    halves = [_lift_boolean(_typed(FunctionCall("boolean", [half]), "bool"))
              for half in (union.left, union.right)]
    return _typed(BinaryOp("or", *halves), "bool")


def _pop(out: list, count: int) -> list:
    """The last ``count`` entries of the output stack, taken off it."""
    start = len(out) - count
    taken = out[start:]
    del out[start:]
    return taken


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------


class _Pass:
    """One :func:`analyze` call. A visit takes its children's analyses
    off the output stack and returns its own. A path visits its own
    steps: only their predicates (one level further down) and its
    primary get entries of their own."""

    def __init__(self, variables, normalized: bool, strict: bool, steps=None):
        self.variables = variables or {}
        self.normalizing = not normalized
        self.strict = strict
        self.steps = steps

    def tree(self, expr: Expr) -> Analysis:
        """The analysis of ``expr``'s tree. The stack holds ``(node,
        depth)``: a positive depth enters the node, 0 visits it after its
        children, -1 checks the primary a filter expression has just
        visited before its predicates and steps are."""
        out: list = []
        stack = [(expr, 1)]
        hits = self.steps.hits if self.steps is not None else ()
        while stack:
            node, depth = stack.pop()
            if depth > 0:
                if depth > MAX_HEIGHT:
                    raise XPathSyntaxError("query nested too deeply to compile")
                if type(node) is Path:
                    entered = len(stack)
                    stack.append((node, 0))
                    for step in reversed(node.steps):
                        if hits and step in hits:  # normalized already
                            continue
                        for predicate in reversed(step.predicates):
                            stack.append((predicate, depth + 2))
                    if node.primary is not None:
                        for predicate in reversed(node.primary_predicates):
                            stack.append((predicate, depth + 1))
                        if self.normalizing:
                            stack.append((node, -1))
                        stack.append((node.primary, depth + 1))
                    if len(stack) > entered + 1:
                        continue
                    stack.pop()  # nothing below its steps: visit it now
                else:
                    if self.normalizing and type(node) is FunctionCall:
                        signature_for(node.name).check_arity(len(node.args))
                    children = node.children()
                    if children:
                        stack.append((node, 0))
                        for child in reversed(children):
                            stack.append((child, depth + 1))
                        continue
            elif depth < 0:
                if out[-1].ast.value_type != "nset":
                    raise XPathTypeError(
                        "a filter expression followed by predicates or '/' must be a "
                        f"node-set, got {out[-1].ast.value_type}"
                    )
                continue
            out.append(_VISITS[type(node)](self, node, out))
        return out[0]

    def reanalyze(self, expr: Expr) -> Analysis:
        """The analysis of a subtree a normalization rule assembled from
        normalized parts (a lifted union, a path extended by ``id``)."""
        return _Pass(None, True, self.strict).tree(expr)

    def predicate(self, analysis: Analysis) -> Analysis:
        """W3C §2.4: a numeric predicate ``[e]`` means
        ``[position() = e]``; anything else is wrapped in ``boolean()``."""
        node = analysis.ast
        if node.value_type == "bool":
            return analysis
        if node.value_type == "num":
            position = _typed(FunctionCall("position", []), "num")
            equals = _typed(BinaryOp("=", position, node), "bool")
            return _binary(equals, _call(position, [], False), analysis)
        converted = _convert(analysis, "bool")
        if type(node) is Union:  # converted to boolean(π1|π2): lift it
            return self.reanalyze(_lift_boolean(converted.ast))
        return converted

    def visit_leaf(self, node, out) -> Analysis:
        kind = type(node)
        node.value_type, node.relev = _LEAF_TYPES[kind], _EMPTY
        counts = _NODE + _CONSTANT if kind is ConstantNodeSet else _NODE
        return Analysis(node, leaf_text(node), _NON_CORE[kind], None, counts)

    def visit_variable(self, ref: VariableRef, out) -> Analysis:
        if not self.normalizing:
            raise XPathTypeError(
                "relevance analysis requires a normalized tree (found an unsubstituted "
                "variable)"
            )
        if ref.name not in self.variables:
            raise UnboundVariableError(ref.name)
        value = self.variables[ref.name]
        if isinstance(value, bool):
            return _call(_typed(FunctionCall(str(value).lower(), []), "bool"), [], self.strict)
        if isinstance(value, (int, float)):
            return self.visit_leaf(NumberLiteral(float(value)), out)
        if isinstance(value, str):
            return self.visit_leaf(StringLiteral(value), out)
        if isinstance(value, (set, frozenset, list, tuple)):
            return self.visit_leaf(ConstantNodeSet(value), out)
        raise XPathTypeError(f"unsupported variable binding type for ${ref.name}: {type(value)}")

    def visit_negate(self, node: Negate, out) -> Analysis:
        operand = out.pop()
        if self.normalizing:
            operand = _convert(operand, "num")
            node.operand, node.value_type = operand.ast, "num"
        node.relev = operand.ast.relev
        text = negate_text(node, operand.text)
        return Analysis(node, text, _NON_CORE[Negate], _scalar(operand), _NODE + operand.counts)

    def visit_binary(self, node: BinaryOp, out) -> Analysis:
        left, right = _pop(out, 2)
        if self.normalizing:
            op = node.op
            if op in _BOOLEAN_OPS or op in _ARITHMETIC_OPS:
                node.value_type = "bool" if op in _BOOLEAN_OPS else "num"
                left, right = _convert(left, node.value_type), _convert(right, node.value_type)
            elif op in _COMPARISON_OPS:
                # Figure 1 defines comparison on all type pairs; no
                # conversion is inserted. Unions are lifted out first
                # (Section 4 / Section 6 pseudo-code assumption).
                if type(left.ast) is Union or type(right.ast) is Union:
                    return self.reanalyze(_lift_comparison(op, left.ast, right.ast))
                node.value_type = "bool"
            else:
                raise XPathTypeError(f"unknown binary operator {op!r}")
            node.left, node.right = left.ast, right.ast
        return _binary(node, left, right)

    def visit_union(self, node: Union, out) -> Analysis:
        left, right = _pop(out, 2)
        if self.normalizing:
            if left.ast.value_type != "nset" or right.ast.value_type != "nset":
                raise XPathTypeError("operands of '|' must be node-sets")
            node.left, node.right, node.value_type = left.ast, right.ast, "nset"
        node.relev = left.ast.relev | right.ast.relev
        return Analysis(
            node, binary_text(node, left.text, right.text), _NON_CORE[Union],
            left.wadler or right.wadler, _NODE + left.counts + right.counts,
        )

    def visit_call(self, call: FunctionCall, out) -> Analysis:
        args = _pop(out, len(call.args))
        if not self.normalizing:
            return _call(call, args, self.strict)
        name = call.name
        signature = FUNCTION_LIBRARY[name]  # its arity was checked on entry
        if not args and signature.defaults_to_context:
            # ``self::node()``, the default argument of context-defaulting
            # functions like ``string()``.
            args = [self.reanalyze(Path(steps=[Step("self", NodeTest("node"))]))]
        if name == "id" and args and args[0].ast.value_type == "nset":
            # ``id(π)`` ≡ π extended with one ``id``-axis step (Section 4).
            arg, step = args[0].ast, Step("id", NodeTest("node"))
            if type(arg) is Path:
                arg.steps.append(step)
            else:  # a union, constant or call primary
                arg = _typed(Path(primary=arg, steps=[step]), "nset")
            return self.reanalyze(arg)
        params = signature.params
        for index, arg in enumerate(args):
            param = params[min(index, len(params) - 1)]
            if param == "nset" and arg.ast.value_type != "nset":
                raise XPathTypeError(f"argument {index + 1} of {name}() must be a node-set")
            if param != "nset" and param != "object":
                args[index] = _convert(arg, param)
        call.args = [arg.ast for arg in args]
        call.value_type = signature.returns
        if name == "boolean" and type(call.args[0]) is Union:
            return self.reanalyze(_lift_boolean(call))
        return _call(call, args, self.strict)

    def visit_path(self, path: Path, out) -> Analysis:
        summaries = []
        memo = self.steps
        for step in reversed(path.steps):  # the last step's predicates are on top
            predicates = []
            if step.predicates:
                if memo is not None:
                    hit = memo.hits.get(step)
                    if hit is not None:
                        summaries.append(hit[1])
                        continue
                predicates = _pop(out, len(step.predicates))
                if self.normalizing:
                    predicates = [self.predicate(predicate) for predicate in predicates]
                    step.predicates = [predicate.ast for predicate in predicates]
            step.value_type, step.relev = "nset", _CN
            summary = _step(step, predicates)
            if memo is not None and predicates:
                memo.summaries[step] = summary
            summaries.append(summary)
        steps = tuple(reversed(summaries))
        path.value_type = "nset"
        if path.primary is None:
            path.relev = _CN
            return _steps_analysis(path, steps)
        tail = _steps_analysis(path, steps)  # a filter expression's path is relative
        predicates = _pop(out, len(path.primary_predicates))
        primary = out.pop()
        if self.normalizing:
            predicates = [self.predicate(predicate) for predicate in predicates]
            path.primary = primary.ast
            path.primary_predicates = [predicate.ast for predicate in predicates]
        node = primary.ast
        path.relev = _CN | node.relev
        if node.relev:
            wadler = "context-dependent filter-expression primary"
        else:
            wadler = primary.wadler or _first(map(_scalar, predicates))
        text = primary.text if type(node) in (FunctionCall, ConstantNodeSet) else f"({primary.text})"
        text += "".join(f"[{predicate.text}]" for predicate in predicates)
        if steps:
            text += "/" + tail.text
        return Analysis(
            path, text, FILTER_PRIMARY, wadler or tail.wadler,
            tail.counts + primary.counts + sum([predicate.counts for predicate in predicates]),
        )


_VISITS = {
    NumberLiteral: _Pass.visit_leaf, StringLiteral: _Pass.visit_leaf,
    ConstantNodeSet: _Pass.visit_leaf, VariableRef: _Pass.visit_variable,
    Negate: _Pass.visit_negate, BinaryOp: _Pass.visit_binary, Union: _Pass.visit_union,
    FunctionCall: _Pass.visit_call, Path: _Pass.visit_path,
}

"""The table evaluators' whole-list decisions, held to what they replace.

MINCONTEXT decides a predicate ``position() RelOp e`` per candidate list
by slicing (:func:`repro.core.mincontext.position_window`), and both
table evaluators test a node set against a number or string with the
operator and member reading resolved once
(:func:`repro.values.compare.member_operands`): MINCONTEXT's compiled
comparison and OPTMINCONTEXT's start set of ``π RelOp c``. This suite
checks:

* the window equals the per-(cp, cs) loop — alone over sizes 0–60 and
  bounds with NaN, ±∞, fractions, values ≤ 0, ``last() ± k`` and values
  above the size, in both operand orders; and inside the evaluators,
  values and every ``Stats`` counter, against the loop forced back in;
* the member test equals an oracle written from XPath 1.0 §3.4, and
  ``compare_values``, on singletons and on multi-member sets of string
  values that are numbers, padded numbers, empty, ``-0`` or not numbers;
* the six evaluators agree on the end-to-end benchmark's thirteen
  catalog templates and on ``wadler_family`` / ``position_heavy_query``
  over catalog, line and tree documents (``corexpath`` where the query
  is Core XPath, ``bottomup`` on the tree);
* every ``Stats`` counter of every forced evaluation of that grid equals
  ``golden/template_counters.json``, written by the evaluators of
  ``1480c00`` (before the slices and the member test). Regenerate it
  from that commit's tree: ``PYTHONPATH=<tree>/src python
  tests/test_table_sweeps.py``.
"""

import json
import math
import pathlib
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import stats
from repro.engine import XPathEngine
from repro.workloads.documents import balanced_tree, book_catalog, numbered_line
from repro.workloads.queries import position_heavy_query, wadler_family
from repro.xml.parser import parse_document

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "template_counters.json"

#: ``F[[RelOp]]`` written out from §3.4: a NaN operand fails every
#: comparison but ``!=``.
OPS = ("=", "!=", "<", "<=", ">", ">=")
FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def relop(op: str, left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) or math.isnan(right):
            return op == "!="
    return {
        "=": lambda: left == right,
        "!=": lambda: left != right,
        "<": lambda: left < right,
        "<=": lambda: left <= right,
        ">": lambda: left > right,
        ">=": lambda: left >= right,
    }[op]()


# ----------------------------------------------------------------------
# Windows against the per-context loop
# ----------------------------------------------------------------------


def _bounds(size: int):
    """Bounds as ``e`` can produce them for a list of ``size``."""
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]),
        st.integers(-3, 3).map(lambda k: float(size + k)),  # last() ± k
        st.integers(-10, 140).map(lambda k: k / 4),  # fractions, ≤ 0, > size
        st.floats(-100, 100, allow_nan=False),
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_window_equals_the_per_context_loop(data):
    from repro.core.mincontext import position_window

    size = data.draw(st.integers(0, 60), label="size")
    bound = data.draw(_bounds(size), label="bound")
    op = data.draw(st.sampled_from(OPS), label="op")
    candidates = list(range(100, 100 + size))
    positions = list(enumerate(candidates, start=1))
    # position() op e
    assert position_window(op, bound, candidates) == [
        z for position, z in positions if relop(op, float(position), bound)
    ]
    # e op position(): the evaluator hands the window the flipped operator
    assert position_window(FLIP[op], bound, candidates) == [
        z for position, z in positions if relop(op, bound, float(position))
    ]


#: Bounds ``e`` with ``Relev ⊆ {cs}``, as query text.
BOUND_TEXTS = (
    "2",
    "0",
    "-1",
    "0.5",
    "2.5",
    "last()",
    "last() - 1",
    "last() + 1",
    "last() * 0.25",
    "last() div 2",
    "1 div 0",
    "-1 div 0",
    "0 div 0",
    "count(//x) - 2",
    "floor(last() div 2)",  # a library call: stays in the loop
)


def _runs_document(runs: list[int]):
    parents = "".join(
        "<p>" + "".join(f"<x>{index}</x>" for index in range(run)) + "</p>"
        for run in runs
    )
    return parse_document(f"<r>{parents}</r>")


def _measure(engine, compiled, algorithm):
    with stats.collect() as collected:
        value = engine.evaluate(compiled, algorithm=algorithm)
    return value, collected.snapshot()


@settings(max_examples=150, deadline=None)
@given(
    runs=st.lists(st.integers(0, 20), min_size=1, max_size=4),
    op=st.sampled_from(OPS),
    bound=st.sampled_from(BOUND_TEXTS),
    position_left=st.booleans(),
    shape=st.sampled_from(("//p/x[{}]", "(//x)[{}]", "//p[x[{}]]", "//x[{}][1]")),
)
def test_sliced_evaluations_equal_the_loop_and_its_counters(
    runs, op, bound, position_left, shape
):
    """Inside the evaluators: per-origin lists (``//p/x``), document
    order (a filter primary), a bottom-up path and a second predicate
    ranking the survivors — values and every counter as with the
    per-(cp, cs) loop forced back in, values as ``topdown``'s."""
    predicate = f"position() {op} {bound}" if position_left else f"{bound} {op} position()"
    query = shape.format(predicate)
    engine = XPathEngine(_runs_document(runs))
    compiled = engine.compile(query)
    reference = engine.evaluate(compiled, algorithm="topdown")
    for algorithm in ("mincontext", "optmincontext"):
        sliced = _measure(engine, compiled, algorithm)
        with mock.patch("repro.core.mincontext._position_bound", return_value=None):
            looped = _measure(engine, compiled, algorithm)
        assert sliced == looped, (algorithm, query)
        assert sliced[0] == reference, (algorithm, query)


# ----------------------------------------------------------------------
# The member test against §3.4
# ----------------------------------------------------------------------

#: String values: numbers, padded numbers, empty, ``-0`` and not numbers.
STRING_VALUES = st.one_of(
    st.sampled_from(
        ["", "-0", "0", " 12 ", "12", "12.0", ".5", "5.", "abc", "NaN", "Infinity", "1e3", " -3.5"]
    ),
    st.integers(-20, 20).map(str),
    st.integers(-40, 40).map(lambda k: f"  {k / 4}\n"),
)


def _number(text: str) -> float:
    """XPath ``number()`` of a string: optional whitespace, an optional
    minus, digits with at most one point — else NaN."""
    body = text.strip(" \t\r\n")
    digits = body[1:] if body.startswith("-") else body
    if not digits or digits == "." or digits.count(".") > 1:
        return math.nan
    if not all(ch.isdigit() and ch.isascii() or ch == "." for ch in digits):
        return math.nan
    return float(body)


def oracle(op: str, values: list[str], scalar, scalar_type: str) -> bool:
    """``S op s`` for a node set ``S`` whose string values are ``values``
    and a ``num`` / ``str`` scalar: some member compares true."""
    if scalar_type == "str" and op in ("=", "!="):
        return any(relop(op, value, scalar) for value in values)
    bound = scalar if scalar_type == "num" else _number(scalar)
    return any(relop(op, _number(value), bound) for value in values)


SCALARS = st.one_of(
    st.tuples(
        st.sampled_from([0.0, -0.0, 12.0, 0.5, -3.5, 1000.0, math.nan, math.inf, -math.inf]),
        st.just("num"),
    ),
    st.tuples(st.sampled_from(["", "12", " 12 ", "-0", "abc", "0.5", "Infinity"]), st.just("str")),
)

_NUMBER_TEXT = {math.inf: "(1 div 0)", -math.inf: "(-1 div 0)"}


def _literal(scalar, scalar_type: str) -> str:
    if scalar_type == "str":
        return f"'{scalar}'"
    if math.isnan(scalar):
        return "(0 div 0)"
    if scalar in _NUMBER_TEXT:
        return _NUMBER_TEXT[scalar]
    return f"({scalar!r})" if scalar >= 0 else f"(-{-scalar!r})"


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(STRING_VALUES, min_size=0, max_size=5),
    op=st.sampled_from(OPS),
    scalar=SCALARS,
)
def test_member_test_equals_the_oracle_and_compare_values(values, op, scalar):
    from repro.values.compare import compare_values

    value, scalar_type = scalar
    strval = values.__getitem__
    numval = lambda index: _number(values[index])  # noqa: E731
    members = list(range(len(values)))
    expected = oracle(op, values, value, scalar_type)
    assert compare_values(op, members, "nset", value, scalar_type, strval, numval) == expected
    assert compare_values(FLIP[op], value, scalar_type, members, "nset", strval, numval) == expected
    for index in members:  # singletons
        assert compare_values(op, [index], "nset", value, scalar_type, strval, numval) == oracle(
            op, [values[index]], value, scalar_type
        )


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(STRING_VALUES, min_size=0, max_size=5),
    op=st.sampled_from(OPS),
    scalar=SCALARS,
    nset_left=st.booleans(),
)
def test_evaluators_member_tests_equal_the_oracle(values, op, scalar, nset_left):
    """MINCONTEXT's compiled comparison and OPTMINCONTEXT's start set,
    on singletons (``//v[. op s]``) and on the whole set (``/r[v op
    s]``), against the oracle over the parsed string values."""
    value, scalar_type = scalar
    document = parse_document("<r>" + "".join(f"<v>{text}</v>" for text in values) + "</r>")
    engine = XPathEngine(document)
    nodes = engine.evaluate("//v", algorithm="topdown")
    strings = [node.string_value for node in nodes]
    literal = _literal(value, scalar_type)

    def comparison(operand):
        return f"{operand} {op} {literal}" if nset_left else f"{literal} {FLIP[op]} {operand}"

    singles = [
        node for node, text in zip(nodes, strings) if oracle(op, [text], value, scalar_type)
    ]
    whole = oracle(op, strings, value, scalar_type)
    for algorithm in ("mincontext", "optmincontext", "topdown"):
        assert engine.evaluate(f"//v[{comparison('.')}]", algorithm=algorithm) == singles
        root = engine.evaluate(f"/r[{comparison('v')}]", algorithm=algorithm)
        assert bool(root) is whole, (algorithm, strings)


# ----------------------------------------------------------------------
# The end-to-end templates: agreement and counters
# ----------------------------------------------------------------------

DOCUMENTS = {
    "catalog": lambda: book_catalog(6),
    "line": lambda: numbered_line(24),
    "tree": lambda: balanced_tree(3, 2),
}

#: ``bottomup`` fills ``|D|³``-cell tables: it joins on small documents
#: only (the tree's 19 nodes).
BOTTOMUP_MAX_NODES = 20

#: ``benchmarks/e2e/workloads.py``'s Wadler and full templates, one
#: literal each, and the generator families ``serve-cold`` runs with
#: their seeded always-true guard.
QUERIES = (
    "//book[price > 30]/title",
    "//book[@year >= 2000 and price < 60]/chapter[@num = 2]/heading",
    "//chapter[pages > 20][position() = 2]/heading",
    "//book[position() > last() - 3]/chapter[last()]/pages",
    "/catalog/book[price <= 40 or @lang = 'de']/authors/author[1]",
    "//chapter[pages < 30 and position() != last()]/pages",
    "//book[position() mod 7 = 3 and price > 20]/title",
    "//book[count(chapter[pages > 15]) >= 2]/title",
    "id(//book[price > 60]/ref)/title",
    "count(//book[authors/author = 'Author 3' and price > 10])",
    "//book[count(preceding-sibling::book[@lang = 'de']) < 3]/title",
    "sum(//book[price > 40]/price) div count(//book)",
    "//book[position() > count(chapter[pages > 15]) * 9]/@id",
    wadler_family(0),
    wadler_family(1),
    wadler_family(2),
    f"{wadler_family(1)}[position() > 0.5]",
    position_heavy_query(1),
    position_heavy_query(2),
    f"{position_heavy_query(2)}[position() > 0.25]",
)

ALGORITHMS = ("naive", "bottomup", "topdown", "mincontext", "optmincontext", "corexpath")


def _canonical(value):
    if isinstance(value, list):
        return [node.pre for node in value]
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def measure_grid() -> dict:
    """``{"document | algorithm | query": {value, counters}}`` for every
    legal forced evaluation of the grid."""
    grid = {}
    for name, build in DOCUMENTS.items():
        engine = XPathEngine(build())
        small = len(engine.document.nodes) <= BOTTOMUP_MAX_NODES
        for query in QUERIES:
            compiled = engine.compile(query)
            for algorithm in ALGORITHMS:
                if algorithm == "corexpath" and not compiled.is_core_xpath:
                    continue
                if algorithm == "bottomup" and not small:
                    continue
                value, counters = _measure(engine, compiled, algorithm)
                grid[f"{name} | {algorithm} | {query}"] = {
                    "value": _canonical(value),
                    "counters": dict(sorted(counters.items())),
                }
    return grid


def test_six_evaluators_agree_and_every_counter_matches_the_golden():
    measured = measure_grid()
    golden = json.loads(GOLDEN_PATH.read_text())
    assert measured.keys() == golden.keys()
    for name in DOCUMENTS:
        for query in QUERIES:
            values = {
                key: cell["value"]
                for key, cell in measured.items()
                if key.startswith(f"{name} | ") and key.endswith(f" | {query}")
            }
            assert len(set(map(json.dumps, values.values()))) == 1, values
    moved = {
        key: (golden[key], cell)
        for key, cell in measured.items()
        if cell != golden[key]
    }
    assert not moved, f"(golden, measured): {moved}"


if __name__ == "__main__":
    cells = sorted(measure_grid().items())
    lines = [f"{json.dumps(key)}: {json.dumps(cell, sort_keys=True)}" for key, cell in cells]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)

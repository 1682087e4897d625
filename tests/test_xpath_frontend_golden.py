"""Golden pin of the XPath front end: the raw AST ``parse_xpath`` builds,
what ``compile_plan`` derives from it, and the exact diagnostic of every
query it rejects.

``tests/golden/xpath_frontend.json`` was generated with the cursor
tokenizer + ten-level recursive-descent parser of the commit before the
XPath front end was rewritten (``2f1e65b``). An accepted cell pins
``unparse`` of the raw AST, ``unparse`` of the normalized AST, the
pre-order ``Relev`` list of the normalized AST, the Core / Wadler
violation texts, the bottom-up path count and the ``PlanTraits``
fields, by name (:data:`TRAITS`);
a query that parses but does not compile also pins its raw AST. A
rejected cell pins ``[type, message, offset]`` of the
:class:`~repro.errors.ReproError` (or the bare type name of whatever
other exception that front end let through). A diff here means the
accepted language, an AST or an error reply changed — not merely the
implementation.

The corpus: the query families and generators of
:mod:`repro.workloads.queries` (a few hundred seeds, with and without
variable bindings), the templates of ``benchmarks/e2e/workloads.py``
copied in below as literals, every string literal in ``tests/*.py`` that
looks like a query (harvested when the golden file was generated; the
``tests`` group's keys *are* those strings, so later test edits do not
move the corpus), and generated malformed inputs: truncations and
single-character edits, lone operators, unterminated literals, Unicode
letters and digits, and deep nesting.

Two bugs of that front end were fixed since, and the file's ``changed``
section holds the new outcome of every cell they touched, keyed
``group|cell``: XPath ``Digits`` are ``[0-9]`` (a Unicode digit is an
unexpected character, not an ``AttributeError`` or a silently converted
number), and a query that front end could not compile for its depth (a
``RecursionError``) is an :class:`~repro.errors.XPathSyntaxError` —
at the ``(``, ``[`` or function name past
:data:`repro.xpath.parser.MAX_DEPTH`, or from ``compile_plan`` for a tree
too tall to walk. :func:`test_changed_cells_are_the_two_fixes` checks
that every override is one of those; every query that front end compiled
still compiles to the same cell.

New cells must come from that commit: ``git archive 2f1e65b`` into a
scratch directory, copy this file into its ``tests/``, and run
``PYTHONPATH=src python tests/test_xpath_frontend_golden.py`` there — it
prints the groups to commit as ``tests/golden/xpath_frontend.json``;
then ``PYTHONPATH=src python tests/test_xpath_frontend_golden.py
--changed`` on this tree prints the ``changed`` section to add to it.
"""

from __future__ import annotations

import ast as pyast
import json
import pathlib
import random
import re

import pytest

from repro.errors import ReproError
from repro.service.planner import compile_plan
from repro.workloads.queries import (
    core_family,
    doubling_query,
    example9_query,
    position_heavy_query,
    random_core_query,
    random_full_query,
    random_query,
    running_example_query,
    wadler_family,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.unparse import unparse

GOLDEN = pathlib.Path(__file__).parent / "golden" / "xpath_frontend.json"


def family_sources() -> dict[str, str]:
    """The named query families of :mod:`repro.workloads.queries`."""
    sources = {
        "running-example": running_example_query(),
        "example-9": example9_query(),
    }
    for pairs in range(7):
        sources[f"doubling-{pairs}"] = doubling_query(pairs)
    for depth in range(1, 9):
        sources[f"core-{depth}"] = core_family(depth)
        sources[f"core-{depth}-plain"] = core_family(depth, with_predicates=False)
    for levels in range(7):
        sources[f"wadler-{levels}"] = wadler_family(levels)
    for levels in range(1, 6):
        sources[f"position-heavy-{levels}"] = position_heavy_query(levels)
    return sources


SEEDS = 200


def generated_sources() -> dict[str, tuple[str, dict | None]]:
    """``{cell: (query, variables)}`` from the three random grammars;
    the variable-drawing grammar is compiled with its bindings and
    without them (unbound variables are a pinned error)."""
    sources: dict[str, tuple[str, dict | None]] = {}
    for seed in range(SEEDS):
        deep = seed % 3 == 0
        shape = {"max_steps": 5, "max_depth": 3} if deep else {}
        sources[f"random-{seed:03d}"] = (random_query(random.Random(seed), **shape), None)
        sources[f"core-{seed:03d}"] = (random_core_query(random.Random(seed), **shape), None)
        sources[f"full-{seed:03d}"] = (random_full_query(random.Random(seed), **shape), None)
        variables: dict = {}
        query = random_full_query(
            random.Random(seed),
            variables=variables,
            nodeset_names=("ns",) if seed % 2 else (),
            **shape,
        )
        sources[f"full-vars-{seed:03d}|bound"] = (query, variables)
        sources[f"full-vars-{seed:03d}|unbound"] = (query, None)
    return sources


# ----------------------------------------------------------------------
# benchmarks/e2e/workloads.py, copied as literals
# ----------------------------------------------------------------------

CORE_SUBJECTS = (
    ("//book", ("title", "price", "authors/author", "chapter/heading", "ref", "@id")),
    ("/catalog/book", ("title", "chapter", "authors", "chapter/pages", "@year")),
    ("//chapter", ("heading", "pages", "@num", "parent::book/title")),
    ("/catalog/book/chapter", ("pages", "heading", "following-sibling::chapter")),
)
CORE_BOOK_TESTS = (
    "ref",
    "authors/author/following-sibling::author",
    "following-sibling::book/ref",
    "chapter/pages",
    "preceding-sibling::book",
    "@lang",
    "authors[author]",
    "chapter[heading]/following-sibling::chapter",
)
CORE_CHAPTER_TESTS = (
    "heading",
    "preceding-sibling::chapter",
    "following-sibling::chapter/pages",
    "parent::book/ref",
    "@num",
    "following-sibling::ref",
    "parent::book[authors/author/following-sibling::author]",
)
CORE_SHAPES = (
    "{a}",
    "not({a})",
    "{a} and {b}",
    "{a} or not({b})",
    "not({a}) and {b}",
    "{a} and ({b} or {c})",
    "not({a} or {b})",
)
BATCH_TAILS = (
    ("/title", "/authors/author", "/chapter/heading", "/price", "/@id", "/chapter/pages"),
    (
        "/heading",
        "/parent::book/title",
        "/following-sibling::chapter/pages",
        "/pages",
        "/@num",
        "/preceding-sibling::chapter/heading",
    ),
)
WADLER_TEMPLATES = (
    ("//book[price > {x}]/title", 30, 70),
    ("//book[@year >= {x} and price < 60]/chapter[@num = 2]/heading", 1995, 2012),
    ("//chapter[pages > {x}][position() = 2]/heading", 15, 40),
    ("//book[position() > last() - {x}]/chapter[last()]/pages", 5, 40),
    ("/catalog/book[price <= {x} or @lang = 'de']/authors/author[1]", 20, 60),
    ("//chapter[pages < {x} and position() != last()]/pages", 20, 45),
    ("//book[position() mod 7 = 3 and price > {x}]/title", 10, 50),
)
FULL_TEMPLATES = (
    ("//book[count(chapter[pages > {x}]) >= 2]/title", 15, 40),
    ("id(//book[price > {x}]/ref)/title", 60, 95),
    ("count(//book[authors/author = 'Author 3' and price > {x}])", 10, 60),
    ("//book[count(preceding-sibling::book[@lang = 'de']) < {x}]/title", 3, 25),
    ("sum(//book[price > {x}]/price) div count(//book)", 20, 80),
    ("//book[position() > count(chapter[pages > {x}]) * 9]/@id", 15, 40),
)
HOT_QUERIES = (
    "count(//book)",
    "count(//chapter[pages > 30])",
    "sum(//price)",
    "string(/catalog/book[1]/title)",
    "boolean(//book[@lang='de'])",
    "count(//author)",
    "/catalog/book[position() <= 5]/title",
    "//book[@id='bk7']/chapter",
    "/catalog/book[last()]/authors/author",
    "//book[price > 97]/title",
    "id('bk3')/chapter/heading",
    "//book/title",
    "//chapter[@num='1']/heading",
    "//book[@lang='en']/price",
    "//chapter/pages[. > 25]",
    "//author",
)
INGEST_QUERIES = (
    "//book[ref and chapter/pages]/title",
    "//chapter[preceding-sibling::chapter]/heading",
    "/catalog/book[not(ref)]/authors/author",
    "//book[authors/author/following-sibling::author]/@id",
    "count(//chapter)",
    "count(//book[@lang='de'])",
    "sum(//book[position() <= 10]/price)",
    "string(/catalog/book[last()]/title)",
)


def _core_predicate(shape: str, tests: tuple, index: int) -> str:
    a, b, c = (tests[(index + offset) % len(tests)] for offset in (0, 3, 5))
    return shape.format(a=a, b=b, c=c)


def template_sources() -> dict[str, str]:
    """Every template of the end-to-end workloads, instantiated."""
    sources = {}
    for number, (subject, tails) in enumerate(CORE_SUBJECTS):
        tests = CORE_CHAPTER_TESTS if "chapter" in subject else CORE_BOOK_TESTS
        for index, shape in enumerate(CORE_SHAPES):
            predicate = _core_predicate(shape, tests, index + number)
            sources[f"core-{number}-{index}"] = (
                f"{subject}[{predicate}]/{tails[index % len(tails)]}"
            )
    for family, (subject, tests) in enumerate(
        (("//book", CORE_BOOK_TESTS), ("//chapter", CORE_CHAPTER_TESTS))
    ):
        head = f"{subject}[{_core_predicate(CORE_SHAPES[5], tests, family)}]"
        for index, tail in enumerate(BATCH_TAILS[family]):
            sources[f"batch-{family}-{index}"] = head + tail
    for kind, templates in (("wadler", WADLER_TEMPLATES), ("full", FULL_TEMPLATES)):
        for number, (template, low, high) in enumerate(templates):
            for which, value in (("low", low), ("mid", f"{(low + high) / 2 + 0.37:.2f}"), ("high", high)):
                sources[f"{kind}-{number}-{which}"] = template.format(x=value)
    for number, query in enumerate(HOT_QUERIES):
        sources[f"hot-{number:02d}"] = query
    for number, query in enumerate(INGEST_QUERIES):
        sources[f"ingest-{number}"] = query
    for levels in (0, 1):
        sources[f"cold-wadler-{levels}"] = f"{wadler_family(levels)}[position() > 0.37]"
    for levels in (1, 2):
        sources[f"cold-position-{levels}"] = f"{position_heavy_query(levels)}[position() > 0.62]"
    return sources


# ----------------------------------------------------------------------
# strings of the test suite
# ----------------------------------------------------------------------

_QUERY_PUNCTUATION = re.compile(r"[/\[\]()@:$*|=<>.+\-]|^[0-9]")


def _query_like(text: str) -> bool:
    """A one-line literal with XPath punctuation that the front end of
    the golden commit parsed, or a short one it refused (prose and
    ``pytest.raises`` patterns are neither)."""
    if not text or "\n" in text or ".*" in text or text.lstrip().startswith("<"):
        return False
    if len(text) > 200 or not _QUERY_PUNCTUATION.search(text):
        return False
    try:
        parse_xpath(text)
    except Exception:  # refused, however that front end refused it
        return len(text) <= 30
    return True


def harvest_test_strings() -> list[str]:
    """Every query-like string literal in ``tests/*.py``, this file
    excepted."""
    here = pathlib.Path(__file__)
    found = set()
    for path in sorted(here.parent.glob("*.py")):
        if path.name == here.name:
            continue
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, pyast.Constant) and isinstance(node.value, str):
                if _query_like(node.value):
                    found.add(node.value)
    return sorted(found)


# ----------------------------------------------------------------------
# malformed and limit inputs
# ----------------------------------------------------------------------

#: Deep-nesting shapes: ``n`` levels of one construct around a leaf.
NESTING_FORMS = {
    "paren": lambda n: "(" * n + "1" + ")" * n,
    "paren-unclosed": lambda n: "(" * n + "1",
    "not": lambda n: "//a[" + "not(" * n + "b" + ")" * n + "]",
    "predicate": lambda n: "//a" + "[b" * n + "]" * n,
    "string": lambda n: "string(" * n + "1" + ")" * n,
    "minus": lambda n: "-" * n + "1",
    "or-chain": lambda n: "//a[" + " or ".join(["b"] * (n + 1)) + "]",
    "plus-chain": lambda n: "+".join(["1"] * (n + 1)),
    "union-chain": lambda n: " | ".join(["//a"] * (n + 1)),
}
NESTING_DEPTHS = (8, 16, 32, 63, 64, 65, 100, 128, 1000)


def explicit_malformed() -> dict[str, str]:
    cases = {
        "empty": "",
        "blank": " \t\r\n",
        "a-colon-star": "a:*",
        "a-axis-b": "a::b",
        "dotdot-five": "..5",
        "one-dotdot-two": "1..2",
        "dot-five-dot": ".5.",
        "number-dot": "12.",
        "child-axis-only": "child::",
        "namespace-axis": "namespace::x",
        "unknown-axis": "sideways::x",
        "unknown-qname-axis": "a:b::c",
        "open-bracket": "a[",
        "close-bracket": "a]",
        "empty-predicate": "a[]",
        "open-call": "f(",
        "empty-parens": "()",
        "dangling-plus": "1 +",
        "slash-run": "/..../",
        "name-name": "a b",
        "name-name-name": "a b c",
        "hash": "a # b",
        "frob": "1 frob 2",
        "dollar-space": "$ ",
        "dollar-digit": "$1",
        "dollar-qname": "$a:b",
        "bang": "a ! b",
        "colon": ":",
        "pi-unclosed": "processing-instruction('x'",
        "pi-number": "processing-instruction(1)",
        "node-arg": "node(1)",
        "call-trailing-comma": "concat('a',)",
        "call-leading-comma": "concat(,'a')",
        "union-minus": "a | -b",
        "minus-minus-one": "--1",
        "star-star": "**",
        "star-star-star": "* * *",
        "div-div": "div div div",
        "and-name": "and",
        "a-and": "a and",
        "at-star": "@*",
        "at-at": "@@a",
        "axis-at": "child::@a",
        "dot-predicate": ".[1]",
        "dotdot-predicate": "..[1]",
        "bare-slash-slash": "//",
        "slash-slash-slash": "///a",
        "slash-predicate": "/[1]",
        "filter-tail-slash": "(a)/",
        "filter-bad-tail": "(a)/1",
        "literal-double": '"abc',
        "literal-single": "'abc",
        "literal-in-predicate": "//a[@x='1]",
        "literal-mixed": "'a\"",
        "comparison-chain": "1 < 2 < 3",
        "tab-newline": "\t//a\n[\r1\t]\n",
        "nbsp": "//a ",
        "fullwidth-slash": "／a",
        "unicode-name": "//é",
        "unicode-name-tail": "//aé",
        "unicode-literal": "//a[. = 'é१']",
        "superscript-two": "²",
        "superscript-in-predicate": "//a[. > ²]",
        "arabic-indic-number": "//a[. > ١٢]",
        "arabic-indic-alone": "١",
        "arabic-indic-after-dot": ".١",
        "ascii-then-arabic-indic": "1١",
        "devanagari-number": "१२",
        "fullwidth-digit": "１",
        "name-then-superscript": "a²",
        "unicode-variable": "$é",
        "greek-name": "//α",
    }
    for operator in (
        "/", "//", "|", "+", "-", "=", "!=", "<", "<=", ">", ">=", "*",
        "and", "or", "div", "mod", "::", "@", ",", "(", ")", "[", "]",
        ".", "..", "$", "!",
    ):
        cases[f"lone-{operator}"] = operator
        cases[f"after-name-{operator}"] = f"a {operator}"
        cases[f"after-number-{operator}"] = f"1 {operator} "
    return cases


def _lcg(seed: int):
    """Own generator: the cells must not move with ``random``'s."""
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


MUTATION_ALPHABET = "/[]()@*.:,|=!<>+-$'\" abdiv01²١é"
MUTATIONS = 400


def malformed_sources() -> dict[str, str]:
    """Explicit cases, deep nesting, and seeded truncations and
    single-character replacements, insertions and deletions of accepted
    queries."""
    sources = dict(explicit_malformed())
    for form, make in NESTING_FORMS.items():
        for depth in NESTING_DEPTHS:
            sources[f"nesting-{form}-{depth}"] = make(depth)
    bases = list(family_sources().values()) + list(template_sources().values())
    draws = _lcg(25)
    for number in range(MUTATIONS):
        base = bases[next(draws) % len(bases)]
        position = next(draws) % len(base)
        char = MUTATION_ALPHABET[next(draws) % len(MUTATION_ALPHABET)]
        operation = next(draws) % 4
        if operation == 0:
            mutant = base[:position]
        elif operation == 1:
            mutant = base[:position] + char + base[position + 1 :]
        elif operation == 2:
            mutant = base[:position] + char + base[position:]
        else:
            mutant = base[:position] + base[position + 1 :]
        sources[f"mutation-{number:03d}"] = mutant
    return sources


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------


def _relev(node) -> str:
    if node.relev is None:
        return "-"
    return ",".join(sorted(node.relev)) or "{}"


#: The ``PlanTraits`` fields a cell pins, named so that the front end of
#: ``2f1e65b`` (whose traits had three more fields) records the same list.
TRAITS = ("ast_size", "uses_position", "positional_sibling", "step_keys")


def outcome(query: str, variables: dict | None = None) -> dict:
    cell: dict = {}
    try:
        cell["raw"] = unparse(parse_xpath(query))
        plan = compile_plan(query, variables)
    except ReproError as error:
        cell["error"] = [type(error).__name__, str(error), getattr(error, "offset", None)]
        return cell
    except Exception as error:  # what the seed front end let through
        cell["error"] = [type(error).__name__]
        return cell
    cell.update(
        normalized=unparse(plan.ast),
        relev=" ".join(_relev(node) for node in plan.ast.walk()),
        core=plan.core_violation,
        wadler=plan.wadler_violation,
        bottomup_paths=plan.bottomup_path_count,
        traits=[getattr(plan.traits, name) for name in TRAITS],
    )
    return cell


def sources(group: str, golden: dict | None = None) -> dict[str, tuple[str, dict | None]]:
    """``{cell: (query, variables)}`` for one group. The ``tests`` group
    is read back from the golden file (its keys are the queries)."""
    if group == "tests":
        texts = harvest_test_strings() if golden is None else list(golden["tests"])
        return {text: (text, None) for text in texts}
    if group == "generated":
        return generated_sources()
    made = {"families": family_sources, "templates": template_sources,
            "malformed": malformed_sources}[group]()
    return {name: (query, None) for name, query in made.items()}


GROUPS = ("families", "generated", "templates", "tests", "malformed")


def measure(group: str, golden: dict | None = None) -> dict:
    """``{cell: outcome}`` in its JSON form (tuples become lists)."""
    return json.loads(
        json.dumps(
            {
                name: outcome(query, variables)
                for name, (query, variables) in sources(group, golden).items()
            }
        )
    )


def changed_cells(golden: dict) -> dict:
    """``{"group|cell": outcome}`` for every cell this tree answers
    differently from the golden file (the recipe for its ``changed``
    section)."""
    changed = {}
    for group in GROUPS:
        measured = measure(group, golden)
        for cell, expected in golden[group].items():
            if measured[cell] != expected:
                changed[f"{group}|{cell}"] = measured[cell]
    return changed


def _fixed_on_purpose(query: str, before: dict, after: dict) -> bool:
    """One of the two fixes since the golden commit: a Unicode digit is
    an unexpected character, or a query that commit answered with a
    ``RecursionError`` is refused for its depth."""
    error = after.get("error", [None, ""])
    if error[0] != "XPathSyntaxError":
        return False
    if error[1].startswith("query nested"):
        return before.get("error") == ["RecursionError"]
    offending = query[error[2]]
    return not offending.isascii() and offending.isdigit() and "unexpected character" in error[1]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_changed_cells_are_the_two_fixes(golden):
    """``changed`` overrides the seed front end's outcome for exactly
    the cells its two bugs produced, each with the reason visible."""
    for key, outcome in golden["changed"].items():
        group, cell = key.split("|", 1)
        query = sources(group, golden)[cell][0]
        assert golden[group][cell] != outcome, key
        assert _fixed_on_purpose(query, golden[group][cell], outcome), key


@pytest.mark.parametrize("group", GROUPS)
def test_front_end_matches_golden(group, golden):
    expected = dict(golden[group])
    prefix = f"{group}|"
    for key, outcome in golden["changed"].items():
        if key.startswith(prefix):
            expected[key[len(prefix) :]] = outcome
    measured = measure(group, golden)
    assert sorted(measured) == sorted(expected)
    wrong = {
        cell: {"measured": measured[cell], "golden": expected[cell]}
        for cell in expected
        if measured[cell] != expected[cell]
    }
    assert not wrong


def test_corpus_exercises_both_outcomes(golden):
    for group in GROUPS:
        cells = golden[group].values()
        accepted = sum(1 for cell in cells if "error" not in cell)
        assert accepted, group
    rejected = sum(1 for cell in golden["malformed"].values() if "error" in cell)
    assert rejected >= len(golden["malformed"]) // 2


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--changed"]:
        document = json.loads(GOLDEN.read_text(encoding="utf-8"))
        document["changed"] = changed_cells(document)
    else:
        document = {group: measure(group) for group in GROUPS}
    print(json.dumps(document, indent=0, sort_keys=True, ensure_ascii=False))

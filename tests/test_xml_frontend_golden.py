"""Golden pin of the XML front end: what ``parse_document`` accepts, the
snapshot it yields, and the exact diagnostic of what it rejects.

``tests/golden/xml_frontend.json`` was generated with the cursor lexer +
tree-building parser of the commit before the front end was rewritten
("PR 17", ``8da6232``). Every cell is either the
:func:`data_model_digest` of ``parse_document(source)`` or the
``[message, line, column]`` of the :class:`XMLSyntaxError` (or the bare
type name of whatever other exception that front end let through). A
diff here means the accepted language, the data model or an error reply
changed — not merely the representation. The digest is spelled out here
rather than taken from ``encode_snapshot``: it is the sha256 of the
``RXSNAP02`` bytes that commit's codec wrote (which is what the cells
hold), computed from ``document.nodes`` alone, so it names the same data
model on that commit and on every snapshot format since.

New cells must come from that commit: ``git archive 8da6232`` into a
scratch directory, copy this file in, and run it with
``PYTHONPATH=src python tests/test_xml_frontend_golden.py`` — it prints
the JSON to commit as ``tests/golden/xml_frontend.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct
import zlib
from array import array

import pytest

from repro.errors import XMLSyntaxError
from repro.workloads.documents import (
    RUNNING_EXAMPLE_XML,
    balanced_tree,
    book_catalog,
    numbered_line,
)
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize

GOLDEN = pathlib.Path(__file__).parent / "golden" / "xml_frontend.json"


def _multiline(markup: str) -> str:
    return markup.replace("><", ">\n  <")


def generated_sources() -> dict[str, str]:
    """Serializations of the workload generators, one line and many."""
    sources = {
        "running-example": RUNNING_EXAMPLE_XML,
        "catalog-1": serialize(book_catalog(1)),
        "catalog-7": serialize(book_catalog(7)),
        "catalog-40": serialize(book_catalog(40)),
        "tree-3x2": serialize(balanced_tree(3, 2)),
        "tree-4x3": serialize(balanced_tree(4, 3)),
        "line-1": serialize(numbered_line(1)),
        "line-25": serialize(numbered_line(25)),
    }
    sources["catalog-7-multiline"] = _multiline(sources["catalog-7"])
    sources["tree-4x3-multiline"] = _multiline(sources["tree-4x3"])
    return sources


#: A document touching every construct the front end knows.
EVERYTHING = """\
<?xml version="1.0" encoding="utf-8"?>
<!DOCTYPE lib [<!ELEMENT lib (shelf*)> <!ENTITY e "v">]>
<!-- before the root -->
<?style sheet="x"?>
<lib id="l" xml:lang='en'>
  <shelf id="s1" n = "1"k='2'>a &amp; b<![CDATA[ <raw> & ]]>c
    <book id="b1" title="1 > 0 &lt; 2"/>
    <!-- a comment -->
    <?pi\tdata?><?pi some  data  ?><?bare?>
  </shelf >
  <shelf id="s2">&#65;&#x42;&quot;&apos;&gt; café ☃</shelf>
  <empty></empty><ws> </ws>
</lib>
<!-- after the root -->
<?after it?>
"""


def corner_sources() -> dict[str, str]:
    """Hand-written corner cases, accepted and rejected."""
    return {
        "everything": EVERYTHING,
        "everything-crlf": EVERYTHING.replace("\n", "\r\n"),
        "empty-string": "",
        "whitespace-only": "  \n",
        # text, CDATA, merging
        "cdata-next-to-text": "<a>x<![CDATA[<y>&z;]]>w</a>",
        "cdata-empty": "<a><![CDATA[]]></a>",
        "cdata-whitespace": "<a> <![CDATA[ ]]> </a>",
        "cdata-unterminated": "<a><![CDATA[x]]</a>",
        "cdata-end-in-text": "<a>x]]>y</a>",
        "cdata-end-in-text-line-2": "<a>\n<b/>x]]>y</a>",
        "text-split-by-comment": "<a>x<!--c-->y<?p?>z</a>",
        "text-with-gt": "<a>1 > 0</a>",
        "nbsp-only-text": "<a>\u00a0<b/>\u2003</a>",
        "nbsp-outside-root": "\u00a0<a/>\x0c",
        "non-ascii-text": "<a>café ☃ \U0001d11e</a>",
        # references
        "predefined-entities": "<a q=\"&lt;&gt;&amp;&apos;&quot;\">&lt;&gt;&amp;&apos;&quot;</a>",
        "character-references": "<a>&#65;&#x42;&#X43;</a>",
        "character-reference-leniency": "<a>&# 65 ;&#x 42 ;&#+67;&#x0x44;&#6_9;</a>",
        "character-reference-bad-hex": "<a>&#xZZ;</a>",
        "character-reference-empty": "<a>&#;</a>",
        "character-reference-too-big": "<a>&#x110000;</a>",
        "character-reference-negative": "<a>\n  &#-1;</a>",
        "character-reference-overflow": "<a>&#99999999999999999999;</a>",
        "character-reference-surrogate": "<a>&#xD800;</a>",
        "entity-without-semicolon": "<a>&amp</a>",
        "entity-swallows-to-semicolon": "<a>x &amp y; z</a>",
        "entity-unknown": "<a>\n\n x&nbsp;</a>",
        "entity-in-attributes": "<a x=\"&amp;&#33;\" y='&lt;'/>",
        "entity-unknown-in-attribute": "<a x=\"1\"\n   y='ok &unknown; no'/>",
        "entity-unterminated-in-attribute": "<a x=\"&amp\"/>",
        # attributes
        "attribute-quotes": "<a x='v \"a\" l' y=\"it's\"/>",
        "attribute-gt-in-value": "<a x=\"1>2\">t</a>",
        "attribute-no-space-between": "<a x=\"1\"y=\"2\"z='3'/>",
        "attribute-space-around-equals": "<a x = \"1\"\n y\t=\r\n'2' />",
        "attribute-duplicate": "<a x=\"1\" y=\"2\" x=\"3\"/>",
        "attribute-duplicate-after-bad-reference": "<a x=\"&bad;\" x=\"3\"/>",
        "attribute-lt-in-value": "<a x=\"a<b\"/>",
        "attribute-unquoted": "<a>\n<b x=1/></a>",
        "attribute-missing-equals": "<a x y=\"1\"/>",
        "attribute-unterminated-value": "<a x=\"1/>",
        "attribute-newline-in-value": "<a x=\"1\n2\"/>",
        "attribute-non-ascii-name": "<a é=\"1\"/>",
        "attribute-order": "<a z=\"1\" id=\"i\" a=\"2\"><b c=\"3\" b=\"4\"/></a>",
        # names and tags
        "names-punctuation": "<a:b-c.d_e x:y=\"1\"><_u/><:c/></a:b-c.d_e>",
        "name-starts-with-digit": "<1a/>",
        "name-starts-with-dot": "<.a/>",
        "name-non-ascii": "<é/>",
        "name-non-ascii-tail": "<aé/>",
        "space-after-lt": "< a/>",
        "start-tag-unterminated": "<a",
        "start-tag-unterminated-after-name": "<a><b x",
        "start-tag-unterminated-after-equals": "<a x=",
        "empty-tag-malformed": "<a /x>",
        "empty-tag-space-before-gt": "<a/ >",
        "end-tag-space": "<a></a >",
        "end-tag-newline": "<a></a\n>",
        "end-tag-space-before-name": "<a></ a>",
        "end-tag-attribute": "<a></a x>",
        "end-tag-unterminated": "<a></a",
        "bang-unknown": "<a><!ELEMENT x></a>",
        "doctype-lowercase": "<!doctype a><a/>",
        # comments and PIs
        "comment-double-hyphen": "<a><!-- a -- b --></a>",
        "comment-empty": "<!----><a/>",
        "comment-trailing-hyphen": "<a><!-- a ---></a>",
        "comment-short": "<a><!--->--></a>",
        "comment-unterminated": "<a><!-- oops</a>",
        "comments-and-pis-around-root": "<!--pre--><?p d?><a/><!--post--><?q?>",
        "pi-tab-after-target": "<a><?t\tdata?></a>",
        "pi-data-stripped": "<a><?t   two  spaces \n?></a>",
        "pi-empty-target": "<a>\n<? x?></a>",
        "pi-nothing": "<a><??></a>",
        "pi-unterminated": "<a><?t data></a>",
        "pi-stylesheet": "<?xml-stylesheet href=\"x\"?><a/>",
        # declaration and DOCTYPE placement
        "declaration-after-root": "<a/><?xml version=\"1.0\"?>",
        "declaration-inside-root": "<a>\n <?xml x?></a>",
        "declaration-uppercase": "<?XML version=\"1.0\"?><a/>",
        "declaration-after-comment": "<!-- c -->\n<?xml version=\"1.0\"?><a/>",
        "declaration-bare": "<?xml?><a/>",
        "doctype-internal-subset": "<!DOCTYPE a [<!ELEMENT a (b)> <!ENTITY e \">\">]><a/>",
        "doctype-after-root": "<a/>\n<!DOCTYPE a>",
        "doctype-inside-root": "<a><!DOCTYPE a></a>",
        "doctype-swallows-root": "<!DOCTYPE a [<!ELEMENT a EMPTY>]<a/>",
        "doctype-negative-depth": "<!DOCTYPE a ]>[><a/>",
        "doctype-unterminated-bracket": "<a/>\n<!DOCTYPE a [\n<a/>",
        "doctype-after-text": " x <!DOCTYPE a><a/>",
        # structure
        "text-before-root": "x<a/>",
        "text-after-root": "<a/>x",
        "cdata-after-root": "<a/><![CDATA[x]]>",
        "cdata-whitespace-after-root": "<a/><![CDATA[ ]]>",
        "reference-before-root": "&#32;<a/>",
        "whitespace-around-root": "\n<a/>\n",
        "second-root": "<a/>\n  <b/>",
        "second-root-open": "<a></a><b>",
        "stray-end-tag": "</a>",
        "stray-end-tag-after-root": "<a/>\n</a>",
        "unclosed": "<a><b>",
        "unclosed-root": "<a>",
        "mismatched": "<a><b></a>",
        "mismatched-line-3": "<a>\n<b>\n  </c></b></a>",
        "no-root": "<!-- only a comment -->",
        # the lexer ran over the whole source before the parser saw a token
        "lexical-beats-earlier-structural": "</b><a x=1/>",
        "lexical-beats-second-root": "<a/><b/><c x=\"<\"/>",
        "lexical-beats-text-outside-root": "x<a>&bad;</a>",
        "first-structural-wins": "</a></b>",
        "text-outside-root-beats-second-root": "<a/>x<b/>",
        "structural-then-unclosed": "<a/><b><c>",
    }


def _lcg(seed: int):
    """Own generator: the cells must not move with ``random``'s."""
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


MUTATION_ALPHABET = "<>&;\"'/=!?-[]# \n\tax1:.é"
MUTATIONS = 300


def mutated_sources() -> dict[str, str]:
    """Seeded single-character replacements, insertions and deletions of
    well-formed inputs."""
    bases = [
        EVERYTHING,
        RUNNING_EXAMPLE_XML,
        serialize(book_catalog(2)),
        "<a x=\"1\" y='2'><b/>t&amp;<!--c--><?p d?><![CDATA[z]]></a>",
    ]
    draws = _lcg(18)
    sources = {}
    for number in range(MUTATIONS):
        base = bases[number % len(bases)]
        position = next(draws) % len(base)
        char = MUTATION_ALPHABET[next(draws) % len(MUTATION_ALPHABET)]
        operation = next(draws) % 3
        if operation == 0:
            mutant = base[:position] + char + base[position + 1 :]
        elif operation == 1:
            mutant = base[:position] + char + base[position:]
        else:
            mutant = base[:position] + base[position + 1 :]
        sources[f"mutation-{number:03d}"] = mutant
    return sources


GROUPS = {
    "generated": generated_sources,
    "corner": corner_sources,
    "mutated": mutated_sources,
}


def data_model_digest(document) -> str:
    """sha256 over (id attribute; per node: kind, parent, size, post,
    depth, name, value) in the byte layout of an ``RXSNAP02`` blob."""
    nodes = list(document.nodes)
    depth: list = []
    for node in nodes:
        depth.append(0 if node.parent is None else depth[node.parent.pre] + 1)

    def ints(values) -> bytes:
        return array("q", values).tobytes()  # the cells come from an LE host

    def strings(items) -> bytes:
        encoded = [None if item is None else item.encode("utf-8") for item in items]
        blob = b"".join(item for item in encoded if item is not None)
        lengths = ints(-1 if item is None else len(item) for item in encoded)
        return lengths + struct.pack("<Q", len(blob)) + blob

    id_attribute = document.id_attribute.encode("utf-8")
    payload = b"".join(
        (
            b"RXSNAP02",
            struct.pack("<IQI", 2, len(nodes), len(id_attribute)),
            id_attribute,
            bytes(ord(node.kind.name[0]) for node in nodes),
            ints(-1 if node.parent is None else node.parent.pre for node in nodes),
            ints(node.size for node in nodes),
            ints(node.pre - depth[node.pre] + node.size - 1 for node in nodes),
            ints(depth),
            strings(node.name for node in nodes),
            strings(node.value for node in nodes),
        )
    )
    return hashlib.sha256(payload + struct.pack("<I", zlib.crc32(payload))).hexdigest()


def outcome(source: str, keep_whitespace_text: bool):
    try:
        document = parse_document(source, keep_whitespace_text=keep_whitespace_text)
        return data_model_digest(document)
    except XMLSyntaxError as error:
        return [error.args[0], error.line, error.column]
    except Exception as error:  # e.g. chr() overflow on a huge character reference
        return type(error).__name__


def measure(group: str) -> dict:
    """``{cell: outcome}`` — every source under both whitespace settings
    (the mutants under the default only)."""
    cells = {}
    for name, source in GROUPS[group]().items():
        cells[f"{name}|keep"] = outcome(source, True)
        if group != "mutated":
            cells[f"{name}|drop"] = outcome(source, False)
    return cells


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_front_end_matches_golden(group):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[group]
    measured = measure(group)
    assert sorted(measured) == sorted(golden)
    wrong = {
        cell: {"measured": measured[cell], "golden": golden[cell]}
        for cell in golden
        if measured[cell] != golden[cell]
    }
    assert not wrong


def test_mutations_exercise_both_outcomes():
    outcomes = list(measure("mutated").values())
    rejected = sum(1 for value in outcomes if isinstance(value, list))
    assert rejected >= MUTATIONS // 4
    assert len(outcomes) - rejected >= MUTATIONS // 4


if __name__ == "__main__":
    print(json.dumps({group: measure(group) for group in sorted(GROUPS)}, indent=1, sort_keys=True))

"""Round-trip and error tests for the printer and parser."""

import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.ast import Projection, Rel, Selection, rel
from repro.algebra.parser import _tokenize, parse
from repro.algebra.printer import to_ascii, to_text, to_tree
from repro.data.schema import Schema
from repro.errors import ParseError
from tests.strategies import TEST_SCHEMA, expressions


class TestParser:
    def test_relation_with_explicit_arity(self):
        assert parse("R/2") == Rel("R", 2)

    def test_relation_from_schema(self):
        assert parse("R", TEST_SCHEMA) == Rel("R", 2)

    def test_relation_without_arity_fails(self):
        with pytest.raises(ParseError):
            parse("R")

    def test_projection(self):
        expr = parse("project[2,1](R/2)")
        assert isinstance(expr, Projection)
        assert expr.positions == (2, 1)

    def test_empty_projection(self):
        assert parse("project[](R/2)").arity == 0

    def test_selection(self):
        expr = parse("select[1=2](R/2)")
        assert isinstance(expr, Selection)

    def test_selection_lt(self):
        assert parse("select[1<2](R/2)").op == "<"

    def test_selection_gt_desugars(self):
        expr = parse("select[1>2](R/2)")
        assert isinstance(expr, Selection)
        assert (expr.i, expr.j) == (2, 1)

    def test_selection_neq_desugars_to_difference(self):
        expr = parse("select[1!=2](R/2)")
        assert type(expr).__name__ == "Difference"

    def test_constant_selection_desugars(self):
        expr = parse("select[2='flu'](R/2)")
        # π_{1..n}(σ_{i=n+1}(τ_c(E))) per the paper.
        assert isinstance(expr, Projection)

    def test_tag(self):
        expr = parse("tag[5](S/1)")
        assert expr.arity == 2

    def test_tag_string_with_escape(self):
        expr = parse(r"tag['don\'t'](S/1)")
        assert expr.value == "don't"

    def test_join_with_condition(self):
        expr = parse("R/2 join[2=1] S/1")
        assert str(expr.cond) == "2=1"

    def test_join_multiple_atoms(self):
        expr = parse("T/3 join[1=1,2<2,3!=3] T/3")
        assert len(expr.cond) == 3

    def test_cartesian(self):
        assert parse("R/2 cartesian S/1").arity == 3
        assert parse("R/2 x S/1").arity == 3

    def test_semijoin(self):
        expr = parse("R/2 semijoin[2=1] S/1")
        assert expr.arity == 2

    def test_union_minus_left_assoc(self):
        expr = parse("S/1 union S/1 minus S/1")
        assert type(expr).__name__ == "Difference"
        assert type(expr.left).__name__ == "Union"

    def test_join_binds_tighter_than_union(self):
        expr = parse("S/1 union S/1 semijoin[1=1] S/1", None)
        assert type(expr).__name__ == "Union"
        assert type(expr.right).__name__ == "Semijoin"

    def test_parens_override(self):
        expr = parse("(S/1 union S/1) join[1=1] S/1")
        assert type(expr).__name__ == "Join"

    def test_unicode_syntax(self):
        expr = parse("π[1](R/2 ⋈[2=1] S/1)")
        assert expr == parse("project[1](R/2 join[2=1] S/1)")

    def test_unicode_semijoin_and_union(self):
        expr = parse("R/2 ⋉[2=1] S/1 ∪ R/2")
        assert type(expr).__name__ == "Union"

    def test_example3_lousy_bars(self):
        """The SA= expression of Example 3, parsed from the paper syntax."""
        schema = Schema({"Likes": 2, "Serves": 2, "Visits": 2})
        text = (
            "project[1](Visits semijoin[2=1] "
            "(project[1](Serves) minus "
            "project[1](Serves semijoin[2=2] Likes)))"
        )
        expr = parse(text, schema)
        assert expr.arity == 1

    def test_errors(self):
        for bad in [
            "",
            "project[1](R/2",
            "R/2 join[2=1]",
            "select[](R/2)",
            "project[a](R/2)",
            "R/0",
            "R/2 @ S/1",
            "project[3](R/2)",
        ]:
            with pytest.raises(Exception):
                parse(bad)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("R/2 S/1")


class TestPrinter:
    def test_unicode_rendering(self):
        expr = rel("R", 2).join(rel("S", 1), "2=1").project(1)
        assert to_text(expr) == "π[1](R ⋈[2=1] S)"

    def test_ascii_rendering(self):
        expr = rel("R", 2).join(rel("S", 1), "2=1").project(1)
        assert to_ascii(expr) == "project[1](R join[2=1] S)"

    def test_union_parens(self):
        expr = rel("S", 1).union(rel("S", 1)).minus(rel("S", 1))
        assert to_ascii(expr) == "(S union S) minus S"

    def test_string_literal_quoting(self):
        expr = rel("S", 1).tag("don't")
        assert "\\'" in to_ascii(expr)

    def test_tree_rendering(self):
        expr = rel("R", 2).join(rel("S", 1), "2=1")
        tree = to_tree(expr)
        assert "Join[2=1] /3" in tree
        assert "  Rel R /2" in tree


@settings(max_examples=200, deadline=None)
@given(expressions(max_depth=4))
def test_parse_ascii_roundtrip(expr):
    """parse(to_ascii(e)) == e for random expressions."""
    assert parse(to_ascii(expr), TEST_SCHEMA) == expr


@settings(max_examples=100, deadline=None)
@given(expressions(max_depth=4))
def test_parse_unicode_roundtrip(expr):
    assert parse(to_text(expr), TEST_SCHEMA) == expr


# ----------------------------------------------------------------------
# The tokenizer against the per-token reference it replaced
# ----------------------------------------------------------------------

_REFERENCE_ALIASES = {
    "π": "project",
    "σ": "select",
    "τ": "tag",
    "∪": "union",
    "−": "minus",
    "-": "minus",
    "⋈": "join",
    "⨝": "join",
    "⋉": "semijoin",
    "×": "cartesian",
    "x": "cartesian",
}

_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:\\.|[^'\\])*')
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>!=|=|<|>)
  | (?P<sym>[()\[\],/πστ∪−⋈⨝⋉×-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _ReferenceToken:
    kind: str
    text: str
    pos: int


def reference_tokenize(source: str) -> list[_ReferenceToken]:
    """One ``re.match`` per token, as the parser tokenized before."""
    tokens: list[_ReferenceToken] = []
    index = 0
    while index < len(source):
        match = _REFERENCE_RE.match(source, index)
        if match is None:
            raise ParseError(
                f"unexpected character {source[index]!r}", position=index
            )
        index = match.end()
        kind = match.lastgroup or ""
        if kind == "ws":
            continue
        text = match.group()
        if kind == "name" and text in (
            "project",
            "select",
            "tag",
            "union",
            "minus",
            "join",
            "semijoin",
            "cartesian",
            "x",
        ):
            kind, text = "keyword", _REFERENCE_ALIASES.get(text, text)
        elif kind == "sym" and text in _REFERENCE_ALIASES:
            kind, text = "keyword", _REFERENCE_ALIASES[text]
        tokens.append(_ReferenceToken(kind, text, match.start()))
    return tokens


def tokens_or_error(tokenize, source: str):
    try:
        return [(t.kind, t.text, t.pos) for t in tokenize(source)]
    except ParseError as error:
        return str(error), error.position


#: Characters a mutation inserts: token starts, quotes and escapes,
#: Unicode aliases and whitespace, and characters no token takes.
_MUTANTS = st.sampled_from(
    list("R1-'\\ \t\n\u00a0x_=<>!,/()[]πσ⋈⋉∪−×@#$.;ä٣")
)


@st.composite
def mutated_texts(draw) -> str:
    """A printed expression with one character inserted, deleted or
    swapped for another — often no longer a well-formed token stream."""
    expr = draw(expressions(max_depth=3))
    text = draw(st.sampled_from((to_ascii(expr), to_text(expr))))
    text = draw(st.sampled_from((text, f"{text} tag['a\\'b'] -3")))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("insert", "delete", "swap")))
    if edit == "insert":
        return text[:at] + draw(_MUTANTS) + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + draw(_MUTANTS) + text[at + 1:]


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
def test_tokenize_is_the_per_token_reference(source):
    """The same tokens, or the same ``ParseError`` at the same offset."""
    assert tokens_or_error(_tokenize, source) == tokens_or_error(
        reference_tokenize, source
    )


@pytest.mark.parametrize(
    "text",
    ["project[1](R/2", "R/2 join[2=1]", "select[1=", "R/2 join[2=1]  "],
)
def test_truncated_input_is_reported_at_its_end(text):
    with pytest.raises(ParseError, match="unexpected end") as raised:
        parse(text)
    assert raised.value.position == len(text)

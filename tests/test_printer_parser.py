"""Round-trip and error tests for the printer and parser."""

import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfbench.workloads import adhoc_query
from repro.algebra import parser as parser_module
from repro.algebra.ast import (
    Difference,
    Expr,
    Join,
    Projection,
    Rel,
    Selection,
    Semijoin,
    Union,
    rel,
    select_eq_const,
    select_gt,
    select_gt_const,
    select_lt_const,
    select_neq,
    select_neq_const,
)
from repro.algebra.conditions import Atom, Condition
from repro.algebra.parser import _tokenize, parse
from repro.algebra.printer import to_ascii, to_text, to_tree
from repro.data.schema import Schema
from repro.data.universe import Value
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


class _ReferenceParser:
    def __init__(
        self, tokens: list[_ReferenceToken], schema: Schema | None, end: int
    ) -> None:
        self._tokens = tokens
        self._index = 0
        self._schema = schema
        self._end = end  #: where truncated input is reported

    # -- token plumbing ------------------------------------------------

    def _peek(self) -> _ReferenceToken | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _ReferenceToken:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", position=self._end)
        self._index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> _ReferenceToken:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text!r}",
                position=token.pos,
            )
        return token

    def _match_keyword(self, *names: str) -> str | None:
        token = self._peek()
        if token is not None and token.kind == "keyword" and token.text in names:
            self._index += 1
            return token.text
        return None

    # -- grammar --------------------------------------------------------

    def parse(self) -> Expr:
        expr = self._expr()
        trailing = self._peek()
        if trailing is not None:
            raise ParseError(
                f"unexpected trailing input {trailing.text!r}",
                position=trailing.pos,
            )
        return expr

    def _expr(self) -> Expr:
        left = self._joinexpr()
        while True:
            keyword = self._match_keyword("union", "minus")
            if keyword is None:
                return left
            right = self._joinexpr()
            left = Union(left, right) if keyword == "union" else Difference(
                left, right
            )

    def _joinexpr(self) -> Expr:
        left = self._atom()
        while True:
            keyword = self._match_keyword("join", "semijoin", "cartesian")
            if keyword is None:
                return left
            if keyword == "cartesian":
                right = self._atom()
                left = Join(left, right, Condition())
                continue
            self._expect("sym", "[")
            cond = self._conditions()
            self._expect("sym", "]")
            right = self._atom()
            node = Join if keyword == "join" else Semijoin
            left = node(left, right, cond)

    def _atom(self) -> Expr:
        keyword = self._match_keyword("project", "select", "tag")
        if keyword == "project":
            self._expect("sym", "[")
            positions = self._positions()
            self._expect("sym", "]")
            self._expect("sym", "(")
            child = self._expr()
            self._expect("sym", ")")
            return Projection(child, positions)
        if keyword == "select":
            self._expect("sym", "[")
            build = self._selection_condition()
            self._expect("sym", "]")
            self._expect("sym", "(")
            child = self._expr()
            self._expect("sym", ")")
            return build(child)
        if keyword == "tag":
            self._expect("sym", "[")
            value = self._literal()
            self._expect("sym", "]")
            self._expect("sym", "(")
            child = self._expr()
            self._expect("sym", ")")
            return child.tag(value)
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", position=self._end)
        if token.kind == "sym" and token.text == "(":
            self._next()
            inner = self._expr()
            self._expect("sym", ")")
            return inner
        if token.kind == "name":
            self._next()
            return self._relation(token)
        raise ParseError(
            f"expected an expression, found {token.text!r}",
            position=token.pos,
        )

    def _relation(self, token: _ReferenceToken) -> Rel:
        nxt = self._peek()
        if nxt is not None and nxt.kind == "sym" and nxt.text == "/":
            self._next()
            arity_token = self._expect("int")
            return Rel(token.text, int(arity_token.text))
        if self._schema is not None and token.text in self._schema:
            return Rel(token.text, self._schema[token.text])
        raise ParseError(
            f"unknown arity for relation {token.text!r}: "
            "write NAME/arity or pass a schema",
            position=token.pos,
        )

    def _positions(self) -> tuple[int, ...]:
        positions: list[int] = []
        token = self._peek()
        if token is not None and token.kind == "sym" and token.text == "]":
            return ()
        while True:
            positions.append(int(self._expect("int").text))
            token = self._peek()
            if token is not None and token.kind == "sym" and token.text == ",":
                self._next()
                continue
            return tuple(positions)

    def _conditions(self) -> Condition:
        token = self._peek()
        if token is not None and token.kind == "sym" and token.text == "]":
            return Condition()
        atoms: list[Atom] = []
        while True:
            i = int(self._expect("int").text)
            op = self._expect("op").text
            j = int(self._expect("int").text)
            atoms.append(Atom(i, op, j))
            token = self._peek()
            if token is not None and token.kind == "sym" and token.text == ",":
                self._next()
                continue
            return Condition(tuple(atoms))

    def _selection_condition(self):
        i = int(self._expect("int").text)
        op = self._expect("op").text
        token = self._peek()
        if token is None:
            raise ParseError(
                "unexpected end of selection condition", position=self._end
            )
        # An integer after the operator is a *position*; a constant
        # comparison takes a quoted string (or is written via tag()).
        if token.kind == "string":
            value = self._literal()
            builders = {
                "=": lambda e: select_eq_const(e, i, value),
                "!=": lambda e: select_neq_const(e, i, value),
                "<": lambda e: select_lt_const(e, i, value),
                ">": lambda e: select_gt_const(e, i, value),
            }
            return builders[op]
        j = int(self._expect("int").text)
        builders = {
            "=": lambda e: Selection(e, "=", i, j),
            "<": lambda e: Selection(e, "<", i, j),
            ">": lambda e: select_gt(e, i, j),
            "!=": lambda e: select_neq(e, i, j),
        }
        return builders[op]

    def _literal(self) -> Value:
        token = self._next()
        if token.kind == "int":
            return int(token.text)
        if token.kind == "string":
            raw = token.text[1:-1]
            return raw.replace("\\'", "'").replace("\\\\", "\\")
        raise ParseError(
            f"expected a literal, found {token.text!r}", position=token.pos
        )


def reference_parse(source: str, schema=None):
    """A descent over positioned tokens, as the parser parsed before."""
    if schema is not None and not isinstance(schema, Schema):
        schema = Schema(schema)
    tokens = reference_tokenize(source)
    if not tokens:
        raise ParseError("empty input")
    return _ReferenceParser(tokens, schema, len(source)).parse()


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


# ----------------------------------------------------------------------
# The one-scan parser against the positioned-token descent it replaced
# ----------------------------------------------------------------------

#: ``adhoc_query``'s arguments after ``rng`` for the two fresh-query
#: streams (``adhoc_tiny``'s and the serving workloads'), and a schema
#: that names their leaves.
STREAMS = {
    "adhoc_tiny": (("R", "T", "U"), 3, True, "R"),
    "serving": (("T", "U"), 2, False),
}
STREAM_SCHEMA = Schema({"R": 2, "T": 2, "U": 2})


def stream_texts(stream: str, seed: int, count: int) -> list[str]:
    rng, texts = random.Random(seed), {}
    while len(texts) < count:
        texts.setdefault(adhoc_query(rng, *STREAMS[stream]), None)
    return list(texts)


def parsed_or_error(parser, source: str, schema):
    """The parsed ``Expr``, or the error's class, message and position."""
    try:
        return parser(source, schema)
    except Exception as error:
        return type(error), str(error), getattr(error, "position", None)


#: What a parser input may end with: nothing, a written alias or word
#: after a whole expression, or a character no token takes.
_TAILS = st.sampled_from(
    ("", "", " tag['a\\'b'] -3", " π[1](R)", " ⋈", " × S", " x", " @", "ä")
)
_DIGITS = st.sampled_from(list("0123456789-"))


@st.composite
def parser_inputs(draw) -> tuple[str, Schema | None]:
    """A printed expression or a fresh-stream text, with a tail, then up
    to two edits (one of them often a digit), and a schema or none."""
    stream = draw(st.sampled_from(("printed", *STREAMS)))
    if stream == "printed":
        expr = draw(expressions(max_depth=3))
        text = draw(st.sampled_from((to_ascii(expr), to_text(expr))))
        schema = TEST_SCHEMA
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        text = adhoc_query(rng, *STREAMS[stream])
        schema = STREAM_SCHEMA
    text += draw(_TAILS)
    for __ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.one_of(_MUTANTS, _DIGITS))
        edit = draw(st.sampled_from(("insert", "delete", "swap")))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text, draw(st.sampled_from((schema, None)))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(parser_inputs())
@example(("R/2 S/1", None))
@example(("project[1](R/2) π[1](R/2)", None))
@example(("R/2 join[3=1] S/1 @", None))
@example(("project[3](R/2) ä", None))
@example(("R/" + "9" * 5000, None))  # past int's digit limit: ValueError
def test_parse_is_the_positioned_descent(case):
    """The same ``Expr``, or the same error class, message and position."""
    source, schema = case
    assert parsed_or_error(parse, source, schema) == parsed_or_error(
        reference_parse, source, schema
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_texts(), st.sampled_from((TEST_SCHEMA, None)))
def test_parse_is_the_positioned_descent_on_mutated_texts(source, schema):
    assert parsed_or_error(parse, source, schema) == parsed_or_error(
        reference_parse, source, schema
    )


@pytest.mark.parametrize("seed", [7, 31])
@pytest.mark.parametrize("stream", STREAMS)
def test_a_well_formed_text_never_tokenizes(stream, seed, monkeypatch):
    """The fast path builds no positioned tokens: only an error does."""
    texts = stream_texts(stream, seed, 1500)
    expected = [reference_parse(text, STREAM_SCHEMA) for text in texts]

    def refuse(source):
        raise AssertionError(f"tokenized a well-formed text: {source!r}")

    monkeypatch.setattr(parser_module, "_tokenize", refuse)
    assert [parse(text, STREAM_SCHEMA) for text in texts] == expected

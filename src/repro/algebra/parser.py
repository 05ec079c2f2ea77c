"""Parser for the textual expression syntax.

Grammar (whitespace-insensitive)::

    expr     := joinexpr (("union" | "minus") joinexpr)*
    joinexpr := atom (("join" | "semijoin") "[" conds? "]" atom
               | ("cartesian" | "x") atom)*
    atom     := "project" "[" positions? "]" "(" expr ")"
              | "select"  "[" selcond "]" "(" expr ")"
              | "tag"     "[" literal "]" "(" expr ")"
              | NAME ("/" INT)?
              | "(" expr ")"
    selcond  := INT op (INT | literal)      -- literal => constant selection
    conds    := INT op INT ("," INT op INT)*
    positions:= INT ("," INT)*
    op       := "=" | "!=" | "<" | ">"
    literal  := INT | "'" chars "'"

Unicode operator aliases are accepted: ``π σ τ ∪ − ⋈ ⨝ ⋉ ×``.

Relation arities come either from an explicit ``NAME/arity`` suffix or
from the ``schema`` argument.  Binary operators associate to the left;
``join``/``semijoin`` bind tighter than ``union``/``minus``.

Constant selections like ``select[2='flu'](E)`` and derived comparisons
(``!=``, ``>``) are *desugared* into the core algebra exactly as the
paper prescribes (τ + σ + π, difference, argument swap).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.algebra.ast import (
    Difference,
    Expr,
    Join,
    Projection,
    Rel,
    Selection,
    Semijoin,
    Union,
    select_eq_const,
    select_gt,
    select_gt_const,
    select_lt_const,
    select_neq,
    select_neq_const,
)
from repro.algebra.conditions import Atom, Condition
from repro.data.schema import Schema
from repro.data.universe import Value
from repro.errors import ParseError

#: Token texts that are keywords, mapped to their canonical spelling.
#: No other token's text is a key, so the text alone decides.
_KEYWORDS = {
    **{
        word: word
        for word in ("project", "select", "tag", "union", "minus", "join",
                     "semijoin", "cartesian")
    },
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

#: One token per match, leading whitespace included; the named group
#: that matched is the token's kind.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<string>'(?:\\.|[^'\\])*')
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>!=|=|<|>)
  | (?P<sym>[()\[\],/πστ∪−⋈⨝⋉×-])
    )""",
    re.VERBOSE,
)
_SPACE_RE = re.compile(r"\s*")


# Slotted, not frozen: a frozen ``__init__`` sets each field through
# ``object.__setattr__``, which costs more than the rest of a token.
@dataclass(slots=True)
class _Token:
    kind: str  # 'string' | 'int' | 'name' | 'op' | 'sym' | 'keyword'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    end = 0
    for match in _TOKEN_RE.finditer(source):
        if match.start() != end:
            break  # a gap: the character after ``end``'s whitespace
        kind = match.lastgroup
        start = match.start(kind)
        end = match.end()
        text = source[start:end]
        keyword = _KEYWORDS.get(text)
        if keyword is not None:
            kind, text = "keyword", keyword
        tokens.append(_Token(kind, text, start))
    index = _SPACE_RE.match(source, end).end()
    if index < len(source):
        raise ParseError(
            f"unexpected character {source[index]!r}", position=index
        )
    return tokens


class _Parser:
    def __init__(
        self, tokens: list[_Token], schema: Schema | None, end: int
    ) -> None:
        self._tokens = tokens
        self._index = 0
        self._schema = schema
        self._end = end  #: where truncated input is reported

    # -- token plumbing ------------------------------------------------

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", position=self._end)
        self._index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> _Token:
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

    def _relation(self, token: _Token) -> Rel:
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


def parse(source: str, schema: Schema | dict[str, int] | None = None) -> Expr:
    """Parse the textual syntax into an expression tree.

    >>> parse("project[1](R/2 join[2=1] S/1)").arity
    1
    >>> from repro.data.schema import Schema
    >>> parse("R semijoin[2=2] Likes", Schema({"R": 2, "Likes": 2})).arity
    2
    """
    if schema is not None and not isinstance(schema, Schema):
        schema = Schema(schema)
    tokens = _tokenize(source)
    if not tokens:
        raise ParseError("empty input")
    return _Parser(tokens, schema, len(source)).parse()

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

A well-formed text parses in one scan: one ``findall`` reads the token
texts, keyword aliases map to their canonical spelling, and a recursive
descent pops them off the reversed list, with no token objects and no
offsets.  Any failure — a grammar miss, or an ``ArityError`` /
``PositionError`` from building a node — is worked out again before it
is raised: ``_tokenize`` reports a stray character at its offset first,
wherever the descent stopped, and otherwise gives the offset of the
token the miss names.  So an error's class, message and position are
those of a descent over positioned tokens.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

from repro.algebra.ast import (
    Difference,
    Expr,
    Join,
    Projection,
    Rel,
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

#: Every token's text, in one ``findall``: ``_TOKEN_RE``'s alternatives
#: in its order, then any other non-space character alone.  No grammar
#: rule accepts such a character, so a text with one fails the descent,
#: and the error path's ``_tokenize`` reports it.
_SCAN_RE = re.compile(r"'(?:\\.|[^'\\])*'|-?\d+|[A-Za-z_][A-Za-z0-9_]*|!=|\S")
_NAME_START = frozenset(string.ascii_letters + "_")
_OPS = frozenset(("=", "!=", "<", ">"))
_SELECTIONS = {
    "=": Expr.select_eq,
    "<": Expr.select_lt,
    ">": select_gt,
    "!=": select_neq,
}
_CONSTANT_SELECTIONS = {
    "=": select_eq_const,
    "!=": select_neq_const,
    "<": select_lt_const,
    ">": select_gt_const,
}


# Slotted, not frozen: a frozen ``__init__`` sets each field through
# ``object.__setattr__``, which costs more than the rest of a token.
@dataclass(slots=True)
class _Token:
    kind: str  # 'string' | 'int' | 'name' | 'op' | 'sym' | 'keyword'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    """The positioned tokens, which only an error needs."""
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


class _Miss(Exception):
    """A grammar miss on the fast path.  Its ``args`` are the message and
    how many tokens are left from the one it names on (0: the end)."""


def _expect(toks: list[str], text: str) -> None:
    found = toks.pop()
    if found != text:
        raise _Miss(f"expected {text!r}, found {found!r}", len(toks) + 1)


def _int(toks: list[str], wanted: str = "'int'") -> int:
    text = toks.pop()
    try:
        return int(text)
    except ValueError:
        if text[-1].isdecimal() and text[0] not in _NAME_START:
            raise  # an int token past ``int``'s digit limit
        raise _Miss(f"expected {wanted}, found {text!r}", len(toks) + 1)


def _op(toks: list[str]) -> str:
    op = toks.pop()
    if op not in _OPS:
        raise _Miss(f"expected 'op', found {op!r}", len(toks) + 1)
    return op


def _literal(toks: list[str]) -> Value:
    text = toks[-1]
    if text[0] != "'" or len(text) == 1:
        return _int(toks, "a literal")
    toks.pop()
    return text[1:-1].replace("\\'", "'").replace("\\\\", "\\")


def _expr(toks: list[str], schema: Schema | None) -> Expr:
    left = _joinexpr(toks, schema)
    while toks:
        keyword = toks[-1]
        if keyword == "union":
            toks.pop()
            left = Union(left, _joinexpr(toks, schema))
        elif keyword == "minus":
            toks.pop()
            left = Difference(left, _joinexpr(toks, schema))
        else:
            break
    return left


def _joinexpr(toks: list[str], schema: Schema | None) -> Expr:
    left = _atom(toks, schema)
    while toks:
        keyword = toks[-1]
        if keyword == "cartesian":
            toks.pop()
            left = Join(left, _atom(toks, schema), Condition())
        elif keyword == "join" or keyword == "semijoin":
            toks.pop()
            _expect(toks, "[")
            cond = _conditions(toks)
            _expect(toks, "]")
            right = _atom(toks, schema)
            left = (Join if keyword == "join" else Semijoin)(left, right, cond)
        else:
            break
    return left


def _conditions(toks: list[str]) -> Condition:
    if toks[-1] == "]":
        return Condition()
    atoms: list[Atom] = []
    while True:
        i = _int(toks)
        atoms.append(Atom(i, _op(toks), _int(toks)))
        if toks[-1] != ",":
            return Condition(tuple(atoms))
        toks.pop()


def _atom(toks: list[str], schema: Schema | None) -> Expr:
    text = toks.pop()
    if text == "project":
        _expect(toks, "[")
        positions: list[int] = []
        if toks[-1] != "]":
            positions.append(_int(toks))
            while toks[-1] == ",":
                toks.pop()
                positions.append(_int(toks))
        _expect(toks, "]")
        _expect(toks, "(")
        child = _expr(toks, schema)
        _expect(toks, ")")
        return Projection(child, tuple(positions))
    if text == "select":
        _expect(toks, "[")
        i = _int(toks)
        op = _op(toks)
        if not toks:
            raise _Miss("unexpected end of selection condition", 0)
        # An integer after the operator is a *position*; a constant
        # comparison takes a quoted string (or is written via tag()).
        quoted = toks[-1][0] == "'"
        other = _literal(toks) if quoted else _int(toks)
        _expect(toks, "]")
        _expect(toks, "(")
        child = _expr(toks, schema)
        _expect(toks, ")")
        return (_CONSTANT_SELECTIONS if quoted else _SELECTIONS)[op](
            child, i, other
        )
    if text == "tag":
        _expect(toks, "[")
        value = _literal(toks)
        _expect(toks, "]")
        _expect(toks, "(")
        child = _expr(toks, schema)
        _expect(toks, ")")
        return child.tag(value)
    if text == "(":
        inner = _expr(toks, schema)
        _expect(toks, ")")
        return inner
    if text[0] not in _NAME_START or text in _KEYWORDS:
        raise _Miss(
            f"expected an expression, found {text!r}", len(toks) + 1
        )
    if toks and toks[-1] == "/":
        toks.pop()
        return Rel(text, _int(toks))
    if schema is not None and text in schema:
        return Rel(text, schema[text])
    raise _Miss(
        f"unknown arity for relation {text!r}: "
        "write NAME/arity or pass a schema",
        len(toks) + 1,
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
    texts = _SCAN_RE.findall(source)
    if not texts:
        raise ParseError("empty input")
    toks = list(map(_KEYWORDS.get, texts, texts))
    toks.reverse()
    try:
        expr = _expr(toks, schema)
        if toks:
            raise _Miss(f"unexpected trailing input {toks[-1]!r}", len(toks))
        return expr
    except Exception as error:  # whatever stopped the descent: re-raised
        tokens = _tokenize(source)  # a stray character is reported first
        if isinstance(error, _Miss):
            message, left = error.args
            position = tokens[-left].pos if left else len(source)
            raise ParseError(message, position=position) from None
        if isinstance(error, IndexError):
            raise ParseError(
                "unexpected end of input", position=len(source)
            ) from None
        raise

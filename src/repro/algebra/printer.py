"""Textual rendering of algebra expressions.

Two styles are provided:

* ``unicode`` (default): close to the paper's notation —
  ``π[1,2](R ⋈[2=1] S)``, ``σ[1<2]``, ``τ[5]``, ``∪``, ``−``, ``⋉``;
* ``ascii``: the parseable syntax of :mod:`repro.algebra.parser` —
  ``project[1,2](R join[2=1] S)``.

``to_text(parse(s))`` round-trips for every expression (property-tested).
"""

from __future__ import annotations

from repro.algebra.ast import (
    ConstantTag,
    Difference,
    Expr,
    Join,
    Projection,
    Rel,
    Selection,
    Semijoin,
    Union,
)
from repro.errors import SchemaError

_UNICODE = {
    "project": "π",
    "select": "σ",
    "tag": "τ",
    "union": "∪",
    "minus": "−",
    "join": "⋈",
    "semijoin": "⋉",
}

_ASCII = {
    "project": "project",
    "select": "select",
    "tag": "tag",
    "union": "union",
    "minus": "minus",
    "join": "join",
    "semijoin": "semijoin",
}


def _literal(value: object) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return str(value)


def to_text(expr: Expr, unicode: bool = True) -> str:
    """Render an expression as a single line of text."""
    sym = _UNICODE if unicode else _ASCII
    return _render(expr, sym, top=True)


def to_ascii(expr: Expr) -> str:
    """Render in the parseable ASCII syntax."""
    return to_text(expr, unicode=False)


def _needs_parens(expr: Expr) -> bool:
    return isinstance(expr, (Union, Difference, Join, Semijoin))


def _operand(expr: Expr, sym: dict[str, str]) -> str:
    text = _render(expr, sym, top=False)
    if _needs_parens(expr):
        return f"({text})"
    return text


def _render(expr: Expr, sym: dict[str, str], top: bool) -> str:
    if isinstance(expr, Rel):
        return expr.name
    if isinstance(expr, Union):
        return (
            f"{_operand(expr.left, sym)} {sym['union']} "
            f"{_operand(expr.right, sym)}"
        )
    if isinstance(expr, Difference):
        return (
            f"{_operand(expr.left, sym)} {sym['minus']} "
            f"{_operand(expr.right, sym)}"
        )
    if isinstance(expr, Projection):
        inner = _render(expr.child, sym, top=True)
        positions = ",".join(str(p) for p in expr.positions)
        return f"{sym['project']}[{positions}]({inner})"
    if isinstance(expr, Selection):
        inner = _render(expr.child, sym, top=True)
        return f"{sym['select']}[{expr.i}{expr.op}{expr.j}]({inner})"
    if isinstance(expr, ConstantTag):
        inner = _render(expr.child, sym, top=True)
        return f"{sym['tag']}[{_literal(expr.value)}]({inner})"
    if isinstance(expr, (Join, Semijoin)):
        key = "join" if isinstance(expr, Join) else "semijoin"
        cond = str(expr.cond)
        op = f"{sym[key]}[{cond}]" if cond else f"{sym[key]}[]"
        return (
            f"{_operand(expr.left, sym)} {op} {_operand(expr.right, sym)}"
        )
    extended = _render_extended(expr, sym)
    if extended is not None:
        return extended
    raise SchemaError(f"unknown expression node: {type(expr).__name__}")


def _render_extended(expr: Expr, sym: dict[str, str]) -> str | None:
    """Render extended-algebra (γ) nodes when present.

    Imported lazily so the core printer has no dependency on
    :mod:`repro.extended`.
    """
    try:
        from repro.extended.ast import GroupBy
    except ImportError:  # pragma: no cover - extended always ships
        return None
    if isinstance(expr, GroupBy):
        inner = _render(expr.child, sym, top=True)
        positions = ",".join(str(p) for p in expr.group_positions)
        aggregates = ",".join(str(a) for a in expr.aggregates)
        spec = ";".join(part for part in (positions, aggregates) if part)
        symbol = "γ" if sym is _UNICODE else "groupby"
        return f"{symbol}[{spec}]({inner})"
    return None


def to_tree(expr: Expr, indent: str = "") -> str:
    """A multi-line AST rendering with arities, for debugging.

    >>> from repro.algebra.ast import rel
    >>> print(to_tree(rel("R", 2).join(rel("S", 1), "2=1")))
    Join[2=1] /3
      Rel R /2
      Rel S /1
    """
    label = _node_label(expr)
    lines = [f"{indent}{label} /{expr.arity}"]
    for child in expr.children():
        lines.append(to_tree(child, indent + "  "))
    return "\n".join(lines)


def _node_label(expr: Expr) -> str:
    if isinstance(expr, Rel):
        return f"Rel {expr.name}"
    if isinstance(expr, Union):
        return "Union"
    if isinstance(expr, Difference):
        return "Difference"
    if isinstance(expr, Projection):
        return f"Projection[{','.join(str(p) for p in expr.positions)}]"
    if isinstance(expr, Selection):
        return f"Selection[{expr.i}{expr.op}{expr.j}]"
    if isinstance(expr, ConstantTag):
        return f"ConstantTag[{_literal(expr.value)}]"
    if isinstance(expr, Join):
        return f"Join[{expr.cond}]"
    if isinstance(expr, Semijoin):
        return f"Semijoin[{expr.cond}]"
    return type(expr).__name__

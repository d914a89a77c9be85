"""A reference reader of the catalog expression grammar, built on Python's ``ast``.

It reads the text with ``ast.parse(text.replace("^", "**"), mode="eval")``
and walks the tree, so the precedence and the shape of the grammar are
Python's own.  Two rules of the catalog grammar are added on top of
``ast``: spaces before the expression are ignored, where ``ast`` would read
them as an indent, and an integer literal must be written in plain decimal
(``0x10``, ``1_000`` and ``00`` are refused), where ``ast`` reads any
Python literal.  The tests compare ``painleve_cubics.parse_expr`` with it.
"""

import ast
from operator import add, mul, sub, truediv

from painleve_cubics import ExprSyntaxError
from painleve_cubics.ring import _div

_ARITHMETIC = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: truediv}
_SIGNS = {ast.UAdd: 1, ast.USub: -1}


def _integer(node, text: str) -> int:
    """A signed integer literal: the only exponent ``^`` takes."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        sign, node = _SIGNS[type(node.op)], node.operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sign * node.value
    raise ExprSyntaxError(f"exponent must be an integer literal in {text!r}")


def _scaled(form, c):
    return {n: v * c for n, v in form.items()} if isinstance(form, dict) else form * c


def _form(node, text: str, ring):
    """The inside of e[...]: a number, or {coordinate: generator exponent} for a form."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in ring.index:
            raise ExprSyntaxError(f"unknown coordinate {node.id!r} in e[...] of {text!r}")
        return {node.id: 2}
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        return _scaled(_form(node.operand, text, ring), _SIGNS[type(node.op)])
    if isinstance(node, ast.BinOp):
        a, b, op = _form(node.left, text, ring), _form(node.right, text, ring), type(node.op)
        a_form, b_form = isinstance(a, dict), isinstance(b, dict)
        if op in (ast.Add, ast.Sub) and a_form == b_form:
            b = _scaled(b, 1 if op is ast.Add else -1)
            return {n: a.get(n, 0) + b.get(n, 0) for n in {**a, **b}} if a_form else a + b
        if op is ast.Mult and not (a_form and b_form):
            return _scaled(a, b) if a_form else _scaled(b, a)
        if op is ast.Div and not b_form:
            if not b:
                raise ExprSyntaxError(f"division by zero in e[...] of {text!r}")
            return {n: _div(v, b) for n, v in a.items()} if a_form else _div(a, b)
    raise ExprSyntaxError(f"e[...] takes a linear form of coordinates in {text!r}")


def _value(node, text: str, ring):
    """A LaurentPoly, or a RationalExpr once a quotient is genuine."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _value(node.left, text, ring) ** _integer(node.right, text)
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
        return _ARITHMETIC[type(node.op)](_value(node.left, text, ring),
                                          _value(node.right, text, ring))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        operand = _value(node.operand, text, ring)
        return -operand if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return ring.const(node.value)
    if isinstance(node, ast.Name):
        if node.id in ring.index:
            return ring.gen(node.id)
        raise ExprSyntaxError(f"unknown symbol {node.id!r} in {text!r}")
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "e"):
        form = _form(node.slice, text, ring)
        if isinstance(form, dict):
            return ring.monomial(form)
        raise ExprSyntaxError(f"e[...] takes a linear form of coordinates in {text!r}")
    raise ExprSyntaxError(f"unsupported {type(node).__name__} in {text!r}")


def parse_expr_ast(text: str, ring):
    """``text`` over ``ring`` as a LaurentPoly or RationalExpr, read through ``ast``."""
    if "**" in text:
        raise ExprSyntaxError(f"powers are written '^', not '**', in {text!r}")
    source = text.lstrip().replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and ast.get_source_segment(source, node) != repr(node.value):
                raise ExprSyntaxError(f"literal not in plain decimal in {text!r}")
        value = _value(tree.body, text, ring)
    except (SyntaxError, UnicodeError, RecursionError) as exc:
        # ast's own refusals: bad syntax, unencodable text, nesting too deep
        raise ExprSyntaxError(f"cannot parse {text!r}") from exc
    return value

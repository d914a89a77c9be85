"""Parser for the compact expression strings used by the catalog files.

The catalogs store polynomials the way the formulas are usually written:

    -e[s2+s3+p2/2+p3/2] - G3*e[s2+p2/2]
    x1*x2*x3 + x1^2 - (G1*Ginf + G2*G3)*x1 + Ginf^2

The grammar is ``+ - * /``, unary signs, parentheses, integer literals,
names and ``base^n``, with Python's precedence: ``-x^2`` is ``-(x^2)``.  The
exponent ``n`` is a signed integer literal, optionally in parentheses
(``x^-1``, ``x^(-1)``; not ``x^--1`` or ``x^2^2``).  A literal is plain
decimal, so ``0x10``, ``1_000`` and ``007`` are refused.  ``e[...]`` is
e^{linear form} on the g_z = e^{z/2} convention; the form combines
coordinates with rational coefficients.  A bare name is a generator of the
ring; a text that names a parameter (a G-symbol, a w-coefficient) is read
over a ring that holds it, and its value is put in afterwards with
``LaurentPoly.substitute``.  Parsing yields a LaurentPoly, or a
RationalExpr when ``/`` leaves a genuine quotient; ``parse_poly`` is for
strings that must be polynomials.

One recursive-descent pass over the tokens evaluates as it reads.  Every
refusal is an ExprSyntaxError, nesting too deep for the interpreter's stack
included; ring arithmetic on the values raises RingError.  A text is read
once per ``(text, ring)``: the value is memoised and shared, which is safe
because no operation changes a value in place; a refusal is not memoised,
so it is raised again on every call.
"""

from __future__ import annotations

import functools
import re
from operator import add, mul, sub, truediv

from .ring import LaurentPoly, Ring, RingError, _div


class ExprSyntaxError(ValueError):
    pass


# a plain decimal literal, a name, or any other single character; spaces only separate
_TOKEN = re.compile(r"[1-9][0-9]*|0|[^\W\d]\w*|\S")
_SUMS, _PRODUCTS = {"+": add, "-": sub}, {"*": mul, "/": truediv}


def _scaled(form, c):
    return {n: v * c for n, v in form.items()} if isinstance(form, dict) else form * c


def _literal(tok: str, text: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:  # more digits than int() converts
        raise ExprSyntaxError(f"{exc} in {text!r}") from exc


def _linear(op: str, a, b, text: str):
    """``a op b`` inside e[...], where each side is a number or a form."""
    a_form, b_form = isinstance(a, dict), isinstance(b, dict)
    if op in _SUMS and a_form == b_form:
        b = _scaled(b, 1 if op == "+" else -1)
        return {n: a.get(n, 0) + b.get(n, 0) for n in {**a, **b}} if a_form else a + b
    if op == "*" and not (a_form and b_form):
        return _scaled(a, b) if a_form else _scaled(b, a)
    if op == "/" and not b_form:
        if not b:
            raise ExprSyntaxError(f"division by zero in e[...] of {text!r}")
        return {n: _div(v, b) for n, v in a.items()} if a_form else _div(a, b)
    raise ExprSyntaxError(f"e[...] takes a linear form of coordinates in {text!r}")


class _Reader:
    """The tokens of ``text``, each method reading one part of the grammar.

    ``form`` picks the domain: a ring value (a LaurentPoly, or a RationalExpr
    once a quotient is genuine), or inside e[...] a number or {coordinate:
    generator exponent}.  On g_z = e^{z/2} a coordinate z is the generator
    exponent 2, so the exponents stay ints; a Fraction is only a value that
    is not an integer.
    """

    def __init__(self, text: str, ring: Ring):
        self.text, self.ring = text, ring
        self.tokens = [""] + _TOKEN.findall(text)[::-1]  # read by pop(); "" is the end

    def binary(self, form: bool, ops: dict = _SUMS):
        """Operands joined left to right by ``ops``: a sum of products of signed powers."""
        operand = self.signed if ops is _PRODUCTS else lambda form: self.binary(form, _PRODUCTS)
        value = operand(form)
        while self.tokens[-1] in ops:
            op, b = self.tokens.pop(), operand(form)
            value = _linear(op, value, b, self.text) if form else ops[op](value, b)
        return value

    def signed(self, form: bool):
        """An atom raised to an exponent, after any signs; inside e[...] ``^`` ends the form."""
        sign = self.tokens[-1]
        if sign in _SUMS:
            self.tokens.pop()
            value = self.signed(form)
            return value if sign == "+" else _scaled(value, -1) if form else -value
        value = self.atom(form)
        if self.tokens[-1] == "^" and not form:
            self.tokens.pop()
            return value ** self.exponent()
        return value

    def exponent(self, signed: bool = True) -> int:
        """A signed integer literal, in any parentheses: the only exponent ``^`` takes."""
        tok = self.tokens.pop()
        if tok == "(":
            n = self.exponent(signed)
            if self.tokens.pop() == ")":
                return n
        elif signed and tok in _SUMS:
            n = self.exponent(False)
            return n if tok == "+" else -n
        elif "0" <= tok < ":":  # only a literal starts with an ASCII digit
            return _literal(tok, self.text)
        raise ExprSyntaxError(f"exponent must be an integer literal in {self.text!r}")

    def atom(self, form: bool):
        """A literal, a name, e[...] or a parenthesised expression."""
        text, tok = self.text, self.tokens.pop()
        if tok == "(":
            value = self.binary(form)
            if self.tokens.pop() == ")":
                return value
        elif "0" <= tok < ":":
            n = _literal(tok, text)
            return n if form else self.ring.const(n)
        elif tok.isidentifier():
            if form:
                if tok in self.ring.index:
                    return {tok: 2}
                raise ExprSyntaxError(f"unknown coordinate {tok!r} in e[...] of {text!r}")
            if tok == "e" and self.tokens[-1] == "[":
                self.tokens.pop()
                exps = self.binary(True)
                if self.tokens.pop() == "]" and isinstance(exps, dict):
                    return self.ring.monomial(exps)
                raise ExprSyntaxError(f"e[...] takes a linear form of coordinates in {text!r}")
            if tok in self.ring.index:
                return self.ring.gen(tok)
            raise ExprSyntaxError(f"unknown symbol {tok!r} in {text!r}")
        raise ExprSyntaxError(f"cannot parse {text!r}")


@functools.cache
def parse_expr(text: str, ring: Ring):
    """The LaurentPoly or RationalExpr value of ``text`` over ``ring`` (see module docstring)."""
    if "**" in text:
        raise ExprSyntaxError(f"powers are written '^', not '**', in {text!r}")
    reader = _Reader(text, ring)
    try:
        value = reader.binary(False)
    except RecursionError as exc:
        raise ExprSyntaxError(f"nesting too deep in {text!r}") from exc
    if reader.tokens != [""]:
        raise ExprSyntaxError(f"cannot parse {text!r}")
    return value


def parse_poly(text: str, ring: Ring) -> LaurentPoly:
    expr = parse_expr(text, ring)
    try:
        return expr.as_poly()
    except RingError as exc:
        raise ExprSyntaxError(f"{text!r} is not polynomial: {exc}") from exc

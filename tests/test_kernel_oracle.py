"""Differential tests of the exact kernel against sympy as an independent oracle.

Laurent polynomials over Q in x, y and eps are generated with negative
exponents, with integral and fractional coefficients, and with half-integer
exponents on eps.  sympy sees eps^(1/2) as the variable s, so each of them is
an ordinary Laurent polynomial in x, y and s.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve_cubics import RationalExpr, Ring, divide_exact

sympy = pytest.importorskip("sympy")

RING = Ring(("x", "y", "eps"))
X, Y, S = sympy.symbols("x y s")

coeffs = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-6, max_value=6, max_denominator=4)).filter(bool)
exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                      st.integers(-3, 3).map(lambda k: Fraction(k, 2)))
# distinct keys and nonzero coefficients, so every generated polynomial is nonzero
laurent = st.dictionaries(exponents, coeffs, min_size=1, max_size=4).map(RING.poly)
# substitution images stay small: the sympy side expands their fourth powers
images = st.dictionaries(exponents, coeffs, min_size=1, max_size=2).map(RING.poly)

SETTINGS = settings(max_examples=60, deadline=None)


def to_sympy(p):
    """The sympy expression of a LaurentPoly, with eps^(1/2) written as s."""
    total = sympy.Integer(0)
    for (a, b, e), c in p.terms.items():
        total += sympy.Rational(c.numerator, c.denominator) * X ** a * Y ** b * S ** int(2 * e)
    return total


def cleared(p):
    """``p`` times the monomial that makes its least exponent in each variable 0."""
    lows = [min(col) for col in zip(*p.terms)]
    return sympy.expand(to_sympy(p) * X ** -lows[0] * Y ** -lows[1] * S ** -int(2 * lows[2]))


def ratio(r: RationalExpr):
    return to_sympy(r.num) / to_sympy(r.den)


@SETTINGS
@given(laurent, laurent)
def test_product_matches_expand(f, g):
    assert sympy.expand(to_sympy(f * g) - to_sympy(f) * to_sympy(g)) == 0


@SETTINGS
@given(laurent, laurent, laurent, st.booleans())
def test_divide_exact_matches_div(h, g, f, divisible):
    if divisible:
        f = g * h
    q = divide_exact(f, g)
    _, remainder = sympy.div(cleared(f), cleared(g), X, Y, S, domain="QQ")
    assert (q is None) == (remainder != 0)
    if q is not None:
        assert sympy.expand(to_sympy(q) * to_sympy(g) - to_sympy(f)) == 0


@SETTINGS
@given(laurent, images, images)
def test_substitute_matches_expand(f, gx, gy):
    got = f.substitute({"x": gx, "y": gy})
    # f(gx, gy) * gx^a * gy^b is a polynomial expression in gx and gy
    a, b = (-min(0, min(col)) for col in list(zip(*f.terms))[:2])
    cleared_image = sum(sympy.Rational(c.numerator, c.denominator) * to_sympy(gx) ** (i + a)
                        * to_sympy(gy) ** (j + b) * S ** int(2 * e)
                        for (i, j, e), c in f.terms.items())
    assert sympy.expand(to_sympy(got.num) * to_sympy(gx) ** a * to_sympy(gy) ** b
                        - to_sympy(got.den) * cleared_image) == 0


@SETTINGS
@given(laurent, laurent, laurent, laurent, laurent, st.booleans())
def test_rational_equality_matches_cancel(f, g, h, k, m, scaled):
    a = RationalExpr(f, g)
    b = RationalExpr(f * m, g * m) if scaled else RationalExpr(h, k)
    assert sympy.cancel(ratio(a) - to_sympy(f) / to_sympy(g)) == 0
    assert (a == b) == (sympy.cancel(ratio(a) - ratio(b)) == 0)

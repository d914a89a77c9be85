"""Differential tests of the exact kernel against sympy as an independent oracle.

Laurent polynomials over Q in x, y and eps are generated with negative
exponents and with integral and fractional coefficients.  Every exponent is
an integer, eps like the others, so each of them is an ordinary Laurent
polynomial in the sympy symbols x, y and eps.
"""

from functools import partial
from operator import add, mul, sub, truediv

import pytest
from hypothesis import example, given, settings, strategies as st

from painleve_cubics import GenImage, RationalExpr, Ring, divide_exact, parse_expr
from painleve_cubics.ring import quotient

from laurent import content, poly

sympy = pytest.importorskip("sympy")
from sympy.polys.polyerrors import HeuristicGCDFailed  # noqa: E402

RING = Ring(("x", "y", "eps"))
ring_poly = partial(poly, RING)  # {exponent vector: coefficient} -> LaurentPoly
X, Y, E = sympy.symbols("x y eps")

coeffs = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-6, max_value=6, max_denominator=4)).filter(bool)
exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3))
# distinct keys and nonzero coefficients, so every generated polynomial is nonzero
laurent = st.dictionaries(exponents, coeffs, min_size=1, max_size=4).map(ring_poly)
# substitution images stay small: the sympy side expands their fourth powers
images = st.dictionaries(exponents, coeffs, min_size=1, max_size=2).map(ring_poly)
# quotients by a two-term (so non-monomial) denominator
quotients = st.builds(quotient, images,
                      st.dictionaries(exponents, coeffs, min_size=2, max_size=2).map(ring_poly))
# (a, b, c) for the monomial x^2a y^2b eps^2c with coefficient 1, the image of g^2
# under granularity 2: an odd power of g takes its square root x^a y^b eps^c
roots = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-2, 2))

SETTINGS = settings(max_examples=60, deadline=None)


def to_sympy(p):
    """The sympy expression of a LaurentPoly."""
    total = sympy.Integer(0)
    for (a, b, e), c in p.items():
        total += sympy.Rational(c.numerator, c.denominator) * X ** a * Y ** b * E ** e
    return total


def cleared(p):
    """``p`` times the monomial that makes its least exponent in each variable 0."""
    lows = [min(col) for col in zip(*(exps for exps, _ in p.items()))]
    return sympy.expand(to_sympy(p) * X ** -lows[0] * Y ** -lows[1] * E ** -lows[2])


def ratio(r: RationalExpr):
    return to_sympy(r.num) / to_sympy(r.den)


@SETTINGS
@given(laurent, laurent)
def test_product_matches_expand(f, g):
    assert sympy.expand(to_sympy(f * g) - to_sympy(f) * to_sympy(g)) == 0


@SETTINGS
@given(laurent, st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)))
def test_graded_matches_collect(f, weights):
    # x -> t^a x, y -> t^b y, eps -> t^c eps: the coefficient of t^d is the part of degree d
    T = sympy.Symbol("t")
    scaled = sympy.expand(to_sympy(f).subs({X: T ** weights[0] * X, Y: T ** weights[1] * Y,
                                            E: T ** weights[2] * E}, simultaneous=True))
    by_power = sympy.collect(scaled, T, evaluate=False)
    expected = {0 if k == 1 else int(k.as_base_exp()[1]): c for k, c in by_power.items()}
    parts = f.graded(dict(zip(RING.names, weights)))
    assert sorted(parts) == sorted(expected)
    for d, part in parts.items():
        assert sympy.expand(to_sympy(part) - expected[d]) == 0


@SETTINGS
@given(laurent, laurent, laurent, st.booleans())
def test_divide_exact_matches_div(h, g, f, divisible):
    if divisible:
        f = g * h
    q = divide_exact(f, g)
    _, remainder = sympy.div(cleared(f), cleared(g), X, Y, E, domain="QQ")
    assert (q is None) == (remainder != 0)
    if q is not None:
        assert sympy.expand(to_sympy(q) * to_sympy(g) - to_sympy(f)) == 0


@SETTINGS
@given(laurent, images, images)
def test_substitute_matches_expand(f, gx, gy):
    got = f.substitute({"x": gx, "y": gy})
    # f(gx, gy) * gx^a * gy^b is a polynomial expression in gx and gy
    a, b = (-min(0, min(col)) for col in list(zip(*(exps for exps, _ in f.items())))[:2])
    cleared_image = sum(sympy.Rational(c.numerator, c.denominator) * to_sympy(gx) ** (i + a)
                        * to_sympy(gy) ** (j + b) * E ** e
                        for (i, j, e), c in f.items())
    assert sympy.expand(to_sympy(got.num) * to_sympy(gx) ** a * to_sympy(gy) ** b
                        - to_sympy(got.den) * cleared_image) == 0


# sympy's field Q(x, y, eps): each element is kept reduced by its gcd, as cancel does
FIELD, FX, FY, FE = sympy.field("x,y,eps", sympy.QQ)


def to_field(r):
    """A LaurentPoly or RationalExpr as an element of FIELD."""
    if isinstance(r, RationalExpr):
        return to_field(r.num) / to_field(r.den)
    total = FIELD(0)
    for (a, b, e), c in r.items():
        total += sympy.QQ(c.numerator, c.denominator) * FX ** a * FY ** b * FE ** e
    return total


def image_sum(f, px, py=lambda j: FY ** j, pe=lambda t: FE ** t):
    """f with x^i, y^j and eps^t replaced by px(i), py(j) and pe(t), summed in FIELD."""
    total = FIELD(0)
    for (i, j, e), c in f.items():
        total += sympy.QQ(c.numerator, c.denominator) * px(i) * py(j) * pe(e)
    return total


def sympy_pair(r) -> tuple:
    """(numerator, denominator) of a LaurentPoly or RationalExpr as sympy expressions."""
    if isinstance(r, RationalExpr):
        return to_sympy(r.num), to_sympy(r.den)
    return to_sympy(r), sympy.Integer(1)


def substitution_holds(got, f, gx, gy) -> bool:
    """``got`` is f at x = gx, y = gy: compared in FIELD, whose elements sympy
    keeps reduced by a heuristic gcd.  Where that gcd gives up, the identity is
    checked cross-multiplied instead, an exact route that takes no gcd."""
    try:
        qx, qy = to_field(gx), to_field(gy)
        return to_field(got) == image_sum(f, lambda i: qx ** i, lambda j: qy ** j)
    except HeuristicGCDFailed:
        pass
    (nx, dx), (ny, dy) = sympy_pair(gx), sympy_pair(gy)
    num, den = sympy.Integer(0), sympy.Integer(1)
    for (i, j, e), c in f.items():
        # c x^i y^j eps^e as a quotient; a negative power swaps its two sides
        top = sympy.Rational(c.numerator, c.denominator) * E ** e
        top *= (nx ** i if i >= 0 else dx ** -i) * (ny ** j if j >= 0 else dy ** -j)
        bottom = (dx ** i if i >= 0 else nx ** -i) * (dy ** j if j >= 0 else ny ** -j)
        num, den = sympy.expand(num * bottom + top * den), sympy.expand(den * bottom)
    got_num, got_den = sympy_pair(got)
    return sympy.expand(got_num * den - num * got_den) == 0


@SETTINGS
@given(laurent, quotients, st.one_of(images, quotients))
def test_substitute_quotients_matches_cancel(f, gx, gy):
    # x and y carry positive and negative exponents: quotients and their inverses
    assert substitution_holds(f.substitute({"x": gx, "y": gy}), f, gx, gy)


same_power = st.tuples(
    st.integers(-2, 2).filter(bool),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3), coeffs),
             min_size=2, max_size=4, unique_by=lambda t: t[:2]))


@SETTINGS
@given(same_power, quotients, images)
# sympy's heuristic gcd gives up on this one ("no luck") in the field comparison
@example(spec=(2, [(0, -1, 2), (-2, 0, 1)]),
         gx=RationalExpr(ring_poly({(0, 0, 0): 1, (-1, 1, -2): 1}),
                         ring_poly({(0, -2, 1): 1, (0, -2, 2): 1})),
         gy=ring_poly({(0, 0, 0): 2}))
def test_substitute_repeated_powers_matches_cancel(spec, gx, gy):
    # every term carries x^k, so all terms but the first take x^k from the power table
    k, terms = spec
    f = poly(RING, {(k, j, e): c for j, e, c in terms})
    assert substitution_holds(f.substitute({"x": gx, "y": gy}), f, gx, gy)


even_exponents = st.tuples(st.integers(-2, 2).map(lambda k: 2 * k), st.integers(-2, 2),
                           st.integers(-3, 3))


@SETTINGS
@given(st.dictionaries(even_exponents, coeffs, min_size=1, max_size=4).map(ring_poly),
       st.one_of(images, quotients))
def test_substitute_granularity_two_matches_cancel(f, gx):
    # gx is the image of g_x^2, and every x exponent of f is even
    got = f.substitute({"x": GenImage(gx, 2)})
    qx = to_field(gx)
    assert to_field(got) == image_sum(f, lambda i: qx ** (i // 2))


@SETTINGS
@given(laurent, roots, roots)
def test_substitute_monomial_roots_matches_cancel(f, rx, reps):
    # odd powers of g_x and of eps take monomial square roots
    (a, b, c), (a2, b2, c2) = rx, reps
    mx = RING.monomial({"x": 2 * a, "y": 2 * b, "eps": 2 * c})
    meps = RING.monomial({"x": 2 * a2, "y": 2 * b2, "eps": 2 * c2})
    got = f.substitute({"x": GenImage(mx, 2), "eps": GenImage(meps, 2)})
    assert got.is_poly()
    # the square roots of mx and meps: the images of g_x and of eps
    root_x, root_e = FX ** a * FY ** b * FE ** c, FX ** a2 * FY ** b2 * FE ** c2
    assert to_field(got) == image_sum(f, lambda i: root_x ** i, pe=lambda t: root_e ** t)


# each operator, and the (num, den) of a op b from the pairs of a and b, uncancelled
FIELD_OPS = {"+": (add, lambda p, q, r, s: (p * s + r * q, q * s)),
             "-": (sub, lambda p, q, r, s: (p * s - r * q, q * s)),
             "*": (mul, lambda p, q, r, s: (p * r, q * s)),
             "/": (truediv, lambda p, q, r, s: (p * s, q * r))}


@SETTINGS
@given(st.one_of(laurent, quotients), st.one_of(laurent, quotients), st.sampled_from("+-*/"))
# a Laurent polynomial minus a genuine quotient: the quotient's reflected difference
@example(a=ring_poly({(1, 0, 0): 1}), op="-",
         b=quotient(ring_poly({(0, 1, 0): 1}), ring_poly({(0, 0, 0): 1, (1, 0, 0): 1})))
def test_quotient_arithmetic_matches_the_field(a, b, op):
    apply, pair = FIELD_OPS[op]
    got = apply(a, b)
    num, den = pair(*sympy_pair(a), *sympy_pair(b))
    got_num, got_den = sympy_pair(got)
    assert sympy.expand(got_num * den - num * got_den) == 0
    # a RationalExpr is a genuine quotient with a normalised denominator, and prints faithfully
    if isinstance(got, RationalExpr):
        assert divide_exact(got.num, got.den) is None and not got.is_zero()
        assert content(got.den) == (0, 0, 0) and got.den.lead()[1] == 1
        assert parse_expr(got.to_text(), RING) == got


@SETTINGS
@given(laurent, laurent, laurent, laurent, laurent, st.booleans())
def test_rational_equality_matches_cancel(f, g, h, k, m, scaled):
    a = quotient(f, g)
    b = quotient(f * m, g * m) if scaled else quotient(h, k)
    assert sympy.cancel(ratio(a) - to_sympy(f) / to_sympy(g)) == 0
    assert (a == b) == (sympy.cancel(ratio(a) - ratio(b)) == 0)

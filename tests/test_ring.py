"""Exact ring arithmetic: worked examples plus randomized algebra laws."""

import itertools
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given, settings, strategies as st

from painleve_cubics import (GenImage, LaurentPoly, RationalExpr, Ring, RingError,
                             divide_exact, parse_expr, parse_poly)
from painleve_cubics.poisson import PoissonStructure
from painleve_cubics.ring import FIELD_BITS, quotient

from laurent import content, evaluate, poly


@pytest.fixture
def ring():
    return Ring(["x", "y", "z"])


def test_inverse_monomials_cancel(ring):
    gx = ring.gen("x")
    assert (gx ** 2 * gx ** -2).is_one()


def test_additive_inverse(ring):
    gx, gy = ring.gen("x"), ring.gen("y")
    assert ((gx - gy) + (gy - gx)).is_zero()


def naive_product(f, g):
    """Independent schoolbook expansion: explicit list-of-terms convolution."""
    ring = f.ring
    acc = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return poly(ring, acc)


def test_square_expansion_oracle(ring):
    gx, gy = ring.gen("x"), ring.gen("y")
    f = gx + gy
    expect = naive_product(f, f)
    assert f ** 2 == expect
    assert f ** 2 == gx ** 2 + 2 * gx * gy + gy ** 2


def test_divide_exact_examples(ring):
    gx, gy = ring.gen("x"), ring.gen("y")
    assert divide_exact(gx ** 2 - gy ** 2, gx - gy) == gx + gy
    # monomial division always succeeds in the Laurent ring
    assert divide_exact(gx, gy) == gx * gy ** -1
    # any quotient of (x^2+y^2)/(x+y) would be homogeneous linear ax+by with
    # a = b = 1 and a + b = 0 simultaneously -- impossible, so: not divisible.
    assert divide_exact(gx ** 2 + gy ** 2, gx + gy) is None
    with pytest.raises(RingError):
        divide_exact(gx, ring.zero())


def test_substitute_identity(ring):
    f = (ring.gen("x") + 3 * ring.gen("y")) ** 2 - ring.gen("z", -1)
    image = f.substitute({"x": ring.gen("x")})
    assert image.as_poly() == f


def test_substitute_eps_scaling():
    ring = Ring(["p3", "eps"])
    half_p3 = ring.e({"p3": Fraction(1, 2)})  # the monomial for e^{p3/2}
    # p3 -> p3 - 2 log(epsilon) weights g_p3 by eps^-2, eps standing for epsilon^(1/2)
    image = half_p3.substitute({"p3": ring.monomial({"p3": 1, "eps": -2})}).as_poly()
    assert image.graded({"eps": 1}) == {-2: image} and image == half_p3 * ring.gen("eps", -2)


def test_substitute_square_image_has_no_denominator():
    ring = Ring(["s1", "s2", "s3", "p1"])
    image = GenImage(parse_expr("e[s3]*(1+e[s1])*(1+e[s1+p1])", ring), granularity=2)
    out = ring.e({"s2": 1, "s3": 1}).substitute({"s2": image})
    assert out.is_poly()
    expect = parse_poly("e[2*s3]*(1+e[s1])*(1+e[s1+p1])", ring)
    assert out.as_poly() == expect


def test_substitute_half_power_refused():
    ring = Ring(["s1", "s2"])
    image = GenImage(parse_expr("1 + e[s1]", ring), granularity=2)
    with pytest.raises(RingError, match="half-power"):
        ring.e({"s2": Fraction(1, 2)}).substitute({"s2": image})


def test_substitute_power_table_is_per_call(ring):
    gx, gy, gz = ring.gen("x"), ring.gen("y"), ring.gen("z")
    f = gx ** 2 + 3 * gx ** 2 * gy
    first = {"x": gy + 1}
    second = {"x": gz - 2}
    expect_first = (gy + 1) ** 2 * (1 + 3 * gy)
    expect_second = (gz - 2) ** 2 * (1 + 3 * gy)
    assert f.substitute(first).as_poly() == expect_first
    assert f.substitute(second).as_poly() == expect_second
    assert f.substitute(first).as_poly() == expect_first


def test_substitute_unmapped_generator_passes_through(ring):
    gx, gy, gz = ring.gen("x"), ring.gen("y"), ring.gen("z")
    f = gx * gz ** -2 + gz ** 3
    out = f.substitute({"x": gy + 1})
    assert out.as_poly() == gy * gz ** -2 + gz ** -2 + gz ** 3


def test_substitute_zero_is_zero(ring):
    out = ring.zero().substitute({"x": ring.one() / (ring.gen("y") + 1)})
    assert out.is_poly() and out.is_zero()


def test_substitute_integral_coefficients_are_ints(ring):
    gx, gy, gz = ring.gen("x"), ring.gen("y"), ring.gen("z")
    out = ((gx + 2 * gy) ** 3).substitute({"x": gy - 3 * gz, "y": gz + 5})
    assert out.is_poly()
    assert all(type(c) is int for c in out.num.terms.values())
    # Fraction coefficients whose products with the images are integral
    half = (Fraction(1, 2) * gx + Fraction(1, 3) * gy).substitute(
        {"x": 2 * gz, "y": 3 * gz})
    assert dict(half.as_poly().items()) == {(0, 0, 1): 2}
    assert type(dict(half.as_poly().items())[(0, 0, 1)]) is int


def test_substitute_error_messages(ring):
    other = Ring(["u", "v"])
    with pytest.raises(RingError, match="substitution for unknown generator 'w'"):
        ring.gen("x").substitute({"w": ring.gen("y")})
    with pytest.raises(RingError, match="substitution images live in mixed ring contexts"):
        ring.gen("x").substitute({"x": ring.gen("y"), "y": other.gen("u")})


def test_monomial_image_takes_the_rational_root_of_its_coefficient(ring):
    gx, gy = ring.gen("x"), ring.gen("y")
    root = gx.substitute({"x": GenImage(4 * gy ** 2, 2)}).as_poly()
    assert dict(root.items()) == {(0, 1, 0): 2} and type(dict(root.items())[(0, 1, 0)]) is int
    assert ((gx ** 3).substitute({"x": GenImage(Fraction(9, 4) * gy ** 2, 2)}).as_poly()
            == Fraction(27, 8) * gy ** 3)
    assert ((gx ** -1).substitute({"x": GenImage(Fraction(8, 27) * gy ** 3, 3)}).as_poly()
            == Fraction(3, 2) * gy ** -1)
    big = 12345678901234567891
    assert (gx.substitute({"x": GenImage(big ** 2 * gy ** 2, 2)}).as_poly()
            == big * gy)


@pytest.mark.parametrize("coeff", [2, Fraction(4, 3), Fraction(3, 4), -4,
                                   12345678901234567891 ** 2 + 1])
def test_monomial_image_without_a_rational_root_is_refused(ring, coeff):
    image = GenImage(coeff * ring.gen("y") ** 2, 2)
    with pytest.raises(RingError, match=f"coefficient {coeff} has no positive rational root of order 2"):
        ring.gen("x").substitute({"x": image})


def test_integral_product_of_fractions_is_an_int(ring):
    gx, gy = ring.gen("x"), ring.gen("y")
    product = (Fraction(1, 2) * gx) * (2 * gy)
    assert dict(product.items()) == {(1, 1, 0): 1} and type(dict(product.items())[(1, 1, 0)]) is int
    mixed = (Fraction(1, 3) * gx + Fraction(1, 2)) * (3 * gy + Fraction(2, 3))
    assert {type(c) for c in mixed.terms.values()} == {int, Fraction}
    assert dict(mixed.items())[(1, 1, 0)] == 1 and type(dict(mixed.items())[(1, 1, 0)]) is int
    assert dict(mixed.items())[(0, 0, 0)] == Fraction(1, 3)


def test_integral_sum_difference_and_derivative_are_ints(ring):
    half = Fraction(1, 2) * ring.gen("x")
    for value in (half + half, Fraction(3, 2) * ring.gen("x") - half):
        assert dict(value.items()) == {(1, 0, 0): 1} and type(dict(value.items())[(1, 0, 0)]) is int
    eps_ring = Ring(["x", "eps"])
    slope = (Fraction(1, 2) * eps_ring.gen("eps", 2)).derivative("eps")
    assert dict(slope.items()) == {(0, 1): 1} and type(dict(slope.items())[(0, 1)]) is int
    linear = (Fraction(2, 3) * eps_ring.gen("eps", -3)).derivative("eps")
    (key, coeff), = linear.items()
    assert key == (0, -4) and type(coeff) is int and coeff == -2


def test_epsilon_leading_examples():
    ring = Ring(["a", "b", "c", "eps"])
    A, B, C = ring.gen("a"), ring.gen("b"), ring.gen("c")
    e = ring.gen("eps")
    f = e ** -1 * A + B + e * C
    parts = f.graded({"eps": 1})
    assert min(parts) == -1 and parts[-1] == e ** -1 * A
    assert (A + B).graded({"eps": 1}) == {0: A + B}


def test_graded_splits_the_terms_by_weighted_degree():
    ring = Ring(["a", "b", "eps"])
    a, b, e = ring.gen("a"), ring.gen("b"), ring.gen("eps")
    f = 3 * a * e ** -2 - b * e ** -2 + Fraction(1, 2) * e ** -5 + a * b
    assert f.graded({"eps": 1}) == {-2: (3 * a - b) * e ** -2, -5: Fraction(1, 2) * e ** -5,
                                    0: a * b}
    assert f.graded({"a": 1}) == {1: 3 * a * e ** -2 + a * b,
                                  0: -b * e ** -2 + Fraction(1, 2) * e ** -5}
    # weights add over the generators, an unlisted one weighs 0, and a weight may be negative
    assert f.graded({"a": 2, "eps": -1}) == {4: 3 * a * e ** -2, 2: -b * e ** -2 + a * b,
                                             5: Fraction(1, 2) * e ** -5}
    assert f.graded({}) == {0: f} and f.graded({"eps": 0}) == {0: f}
    assert ring.zero().graded({"eps": 1}) == {}
    assert (a + b).graded({"eps": 1}) == {0: a + b}
    # the parts share the terms' coefficients, and sum back to the polynomial
    assert sum(f.graded({"a": 1, "b": 3}).values(), ring.zero()) == f
    with pytest.raises(KeyError):
        f.graded({"q": 1})


def test_evaluate_examples(ring):
    assert evaluate(ring.one(), {}) == 1
    f = ring.gen("x", 2) - 3 * ring.gen("y", -1)
    assert evaluate(f, {"x": 2, "y": Fraction(1, 2)}) == 4 - 6
    with pytest.raises(RingError):
        evaluate(f, {"x": 0, "y": 1})


def test_mixing_contexts_is_an_error(ring):
    other = Ring(["u", "v"])
    with pytest.raises(RingError, match="mixed ring"):
        ring.gen("x") + other.gen("u")


def test_negative_power_of_sum_promotes(ring):
    f = ring.gen("x") + 1
    inv = f ** -1
    assert isinstance(inv, RationalExpr) and not inv.is_poly()
    assert (inv * f).is_one()


def test_rational_expr_equality_cross_multiplied(ring):
    gx, gy = ring.gen("x"), ring.gen("y")
    a = (gx ** 2 - gy ** 2) / (gx + gy)
    assert a.is_poly() and a.as_poly() == gx - gy
    b = ring.one() / (gx + 1)
    c = (gx - 1) / (gx ** 2 - 1)
    assert b == c


def test_canonical_text_deterministic(ring):
    f = ring.gen("y") * 2 - ring.gen("x") ** 2 + Fraction(1, 3)
    assert f.to_text() == "-x^2 + 2 * y + 1/3"
    assert f.to_terms_json() == [{"c": "-1", "e": {"x": "2"}},
                                 {"c": "2", "e": {"y": "1"}},
                                 {"c": "1/3", "e": {}}]


def test_no_generator_takes_fractional_exponents():
    ring = Ring(["a", "eps"])
    for name in ring.names:
        with pytest.raises(RingError, match=f"non-integer exponent 1/2 on generator '{name}'"):
            ring.gen(name, Fraction(1, 2))
        with pytest.raises(RingError, match=f"non-integer exponent 3/2 on generator '{name}'"):
            ring.monomial({name: Fraction(3, 2)})
    assert ring.monomial({"eps": Fraction(4, 2)}).monomial_exps() == (0, 2)


def test_each_ring_shares_one_unit(ring):
    one = ring.one()
    assert ring.one() is one and one.is_one()
    assert Ring(ring.names).one() is not one
    x = ring.gen("x")
    assert x.den is one and x.num is x
    assert x ** 0 is one and ((x + 1) ** -1) ** 0 is one


def test_a_laurent_value_is_a_laurent_poly(ring):
    x = ring.gen("x")
    assert isinstance(x / x, LaurentPoly) and x / x == ring.one()
    assert isinstance((x + 1) / (x + 1), LaurentPoly) and ((x + 1) / (x + 1)).is_one()
    assert isinstance(parse_expr("a*b - a", Ring(["a", "b"])), LaurentPoly)
    assert x.is_poly() and x.as_poly() is x and x.num is x and x.den is ring.one()


def test_a_genuine_quotient_has_a_normalised_denominator(ring):
    x, y = ring.gen("x"), ring.gen("y")
    q = x / (1 + x)
    assert isinstance(q, RationalExpr) and not q.is_poly() and not q.is_zero()
    assert content(q.den) == (0, 0, 0) and q.den.lead()[1] == 1
    # content x^-1 and leading coefficient 4 move to the numerator
    scaled = y / (2 * x ** -1 + 4 * y)
    assert scaled.den == x * y + Fraction(1, 2) and scaled.num == x * y / 4


def test_a_content_zero_denominator_is_not_multiplied_by_a_unit(ring, monkeypatch):
    x, y = ring.gen("x"), ring.gen("y")
    den, shifted = 1 + x, x ** -1 + 1
    calls = []
    original = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(b) or original(a, b))
    q = RationalExpr(y, den)
    assert calls == [] and q.num is y and q.den is den
    # content x^-1: numerator and denominator are both multiplied by x
    q = RationalExpr(y, shifted)
    assert calls == [x, x] and q.num == x * y and q.den == den


XY = Ring(["x", "y"])
X = XY.gen("x")


@pytest.mark.parametrize("op, message", [
    (lambda: Ring(["x", "x"]), r"duplicate generator names in \('x', 'x'\)"),
    (lambda: XY.monomial({"q": 1}), r"generator 'q' not in Ring\(x, y\)"),
    (lambda: (X + 1).constant_value(), "not a constant: x \\+ 1"),
    (lambda: (X + 1).monomial_exps(), "not a monomial: x \\+ 1"),
    (lambda: XY.zero().lead(), "zero polynomial has no leading term"),
    (lambda: XY.zero()._content_key(), "zero polynomial has no content"),
    (lambda: X ** 0.5, "exponent must be an integer, got 0.5"),
    (lambda: GenImage(X, 0), "granularity must be >= 1"),
    (lambda: GenImage("x"), "cannot interpret 'x' as an expression"),
    (lambda: divide_exact(X, Ring(["x"]).gen("x")), "mixed ring contexts in divide_exact"),
    (lambda: quotient(X, Ring(["x"]).one()), "numerator/denominator ring mismatch"),
    (lambda: ((X + 1) ** -1) ** 0.5, "exponent must be an integer"),
    (lambda: (X / (X + 1)).as_poly(), "not a Laurent polynomial: denominator x \\+ 1"),
    (lambda: X / XY.zero(), "zero denominator"),
], ids=["duplicate-names", "monomial-unknown-generator", "constant-value", "monomial-exps",
        "lead-of-zero", "content-of-zero", "poly-fractional-power", "granularity",
        "gen-image-type", "divide-mixed-rings", "quotient-mixed-rings", "expr-fractional-power",
        "quotient-as-poly", "zero-denominator"])
def test_kernel_error_paths(op, message):
    with pytest.raises(RingError, match=message):
        op()


@pytest.mark.parametrize("value", [X + 1, (X + 1) ** -1], ids=["poly", "quotient"])
@pytest.mark.parametrize("op", [add, sub, mul, truediv], ids=["add", "sub", "mul", "div"])
def test_an_operand_of_another_type_is_a_type_error(value, op):
    for a, b in ((value, 1.5), (1.5, value), (value, "x")):
        with pytest.raises(TypeError):
            op(a, b)
    assert value != "x" and not value == 1.5


def test_a_polynomial_divides_and_compares_with_a_genuine_quotient():
    # entered here by name, not only by the quotients hypothesis happens to draw;
    # a LaurentPoly operator leaves a quotient operand to its reflected method
    q = (X + 1) / (X + 2)
    assert isinstance(q, RationalExpr)
    assert all(op(X, q) is NotImplemented
               for op in (LaurentPoly.__mul__, LaurentPoly.__truediv__, LaurentPoly.__eq__))
    assert X != q and not X == q and X + 1 == q * (X + 2) == (X + 2) * q
    r = X / q
    assert isinstance(r, RationalExpr) and r == X * (X + 2) / (X + 1)
    assert 2 / q == q.__rtruediv__(2) == 2 * (X + 2) / (X + 1)


def test_the_ring_module_resolves_the_division_names_on_first_use():
    # the benchmark's tracer binds ring.divide_exact and ring.RationalExpr.__init__
    from painleve_cubics import division, ring
    assert ring.divide_exact is division.divide_exact and ring.RationalExpr is RationalExpr
    with pytest.raises(AttributeError, match="has no attribute 'heappush'"):
        ring.heappush


def test_substitute_without_images_or_ring_is_the_identity():
    p = X ** 2 - X ** -1 + 1
    q = p.substitute({})
    assert q == p and q.ring is XY


# -- randomized algebra laws ---------------------------------------------------

coeffs = st.integers(-4, 4).map(Fraction)
exps = st.integers(-2, 3)


@st.composite
def polys(draw, ring_names=("x", "y", "z"), max_terms=4):
    ring = Ring(ring_names)
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        key = tuple(draw(exps) for _ in ring_names)
        terms[key] = terms.get(key, 0) + draw(coeffs)
    return poly(ring, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_mul_matches_schoolbook_oracle(f, g):
    assert f * g == naive_product(f, g)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_substitute_is_ring_homomorphism(f, g):
    ring = f.ring
    images = {"x": ring.gen("y") + 11, "y": ring.gen("x") * ring.gen("z", -1)}
    lhs = (f * g).substitute(images)
    rhs = f.substitute(images) * g.substitute(images)
    assert lhs == rhs
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_divide_exact_roundtrip(f, g):
    if g.is_zero():
        return
    q = divide_exact(f * g, g)
    assert q == f


@settings(max_examples=40, deadline=None)
@given(polys(["a", "b", "eps"]), polys(["a", "b", "eps"]))
def test_epsilon_leading_multiplicative(f, g):
    if f.is_zero() or g.is_zero():
        return
    pf, pg, pfg = (p.graded({"eps": 1}) for p in (f, g, f * g))
    assert min(pfg) == min(pf) + min(pg)
    assert pfg[min(pfg)] == pf[min(pf)] * pg[min(pg)]


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_evaluate_is_a_homomorphism(f, g):
    point = {"x": Fraction(2, 3), "y": -2, "z": Fraction(5, 7)}
    assert evaluate(f * g, point) == evaluate(f, point) * evaluate(g, point)
    assert evaluate(f + g, point) == evaluate(f, point) + evaluate(g, point)
    images = {"x": f.ring.gen("z"), "y": f.ring.gen("y") * f.ring.gen("x")}
    pushed = f.substitute(images)
    chased = {"x": point["z"], "y": point["y"] * point["x"], "z": point["z"]}
    assert evaluate(pushed, point) == evaluate(f, chased)


def test_parser_error_paths():
    ring = Ring(["x", "y"])
    import pytest as _pytest
    from painleve_cubics import ExprSyntaxError
    with _pytest.raises(ExprSyntaxError, match="unknown symbol"):
        parse_poly("x + q", ring)
    with _pytest.raises(ExprSyntaxError):
        parse_poly("x +", ring)
    with _pytest.raises(ExprSyntaxError, match="unknown coordinate"):
        parse_poly("e[w/2]", ring)
    with _pytest.raises(ExprSyntaxError, match="not polynomial"):
        parse_poly("1/(x + 1)", ring)


def test_library_facade():
    import painleve_cubics as pc
    assert pc.cubic("PI").phi_display() == "x1 x2 x3 - x1 - x2 + 1"
    assert pc.chart("PV").tag == "PV"
    assert pc.signature("PV").dimension() == 7
    assert pc.lambda_catalog("PV").leaf_dim == 4


def assert_exact(poly):
    """Coefficients are ints or Fractions; every exponent is an int."""
    for exps, c in poly.items():
        assert type(c) in (int, Fraction), (exps, c)
        assert all(type(e) is int for e in exps), exps


@pytest.mark.parametrize("word", list(itertools.product((1, 2, 3), repeat=3)))
def test_mutations_stay_exact(word):
    from painleve_cubics.cluster import initial_cluster, mutate
    cl = initial_cluster()
    for i in word:
        cl = mutate(i, cl)
    for value in cl.values():
        assert_exact(value.num)
        assert_exact(value.den)


def test_eps_scalings_stay_exact():
    from painleve_cubics.checks.confluence import arrow_limit, leading_degrees
    from painleve_cubics.confluence import arrows
    for a in arrows():
        lim = arrow_limit(a)
        assert all(type(d) is Fraction for d in leading_degrees(lim))
        for value in (*lim.x, *lim.G.values(), *lim.omega):
            assert_exact(value)
    ring = Ring(["x", "y", "eps"])
    root = ring.monomial({"x": 1, "eps": 1})  # e^{x/2} epsilon^(1/2)
    square = root * root
    assert dict(square.items()) == {(2, 0, 2): 1}
    assert_exact(square)
    bracket = PoissonStructure(ring, {("x", "y"): Fraction(1, 2)}).bracket(
        root, ring.monomial({"y": 1, "eps": 3}))
    assert dict(bracket.items()) == {(1, 1, 4): Fraction(1, 2)}
    assert_exact(bracket)


def test_reciprocal_of_integral_coefficient_is_a_fraction():
    x = Ring(["x"]).gen("x")
    (coeff,) = ((3 * x) ** -1).terms.values()
    assert type(coeff) is Fraction and coeff == Fraction(1, 3)
    assert dict(((x + 1) * 3).items()) == {(1,): 3, (0,): 3}
    assert all(type(c) is int for c in ((x + 1) * 3).terms.values())


# -- exact scalars and the packed exponent layout --------------------------------


@pytest.mark.parametrize("build", [
    lambda r: r.const(0.1),
    lambda r: r.gen("eps", 0.5),
    lambda r: r.monomial({"x": 2.0}),
    lambda r: r.const("1/3"),
    lambda r: r.monomial({"x": 1}, coeff=1.5),
], ids=["float-const", "float-eps-power", "float-exponent", "string-const", "float-coeff"])
def test_inexact_scalars_are_refused(build):
    with pytest.raises(RingError, match="non-exact scalar"):
        build(Ring(["x", "eps"]))


B = 2 ** (FIELD_BITS - 2)


@pytest.fixture
def ay():
    return Ring(["a", "x", "y"])


@pytest.mark.parametrize("build", [
    lambda r: r.gen("x", B - 1) * r.gen("x"),
    lambda r: r.gen("x", -B) * r.gen("x", -1),  # x borrows from a, and a^-1 x^(3B-1) is no answer
    lambda r: r.gen("a", -B) * r.gen("a", -1),  # the top field borrows: a negative key
    lambda r: (r.gen("x") + r.gen("y", B - 1)) * (r.gen("x") + r.gen("y", 2)),
    lambda r: r.gen("x", -B) ** -1,
    lambda r: (r.gen("a") * r.gen("y", -B) + 1).derivative("y"),
    lambda r: divide_exact(r.gen("x", B - 1) * (1 + r.gen("y")), r.gen("x", -1) * (1 + r.gen("y"))),
    lambda r: divide_exact(r.gen("x", -B) * (1 + r.gen("y")), r.gen("x") * (1 + r.gen("y"))),
    lambda r: r.gen("x", B),
    lambda r: r.monomial({"y": -B - 1}),
], ids=["product", "product-borrow", "product-top-field", "product-one-term-of-four",
        "negative-power", "derivative", "quotient-high", "quotient-low", "gen", "monomial"])
def test_exponent_overflow_is_a_ring_error(ay, build):
    with pytest.raises(RingError, match="overflow"):
        build(ay)


def test_exponents_at_the_field_ends_stay_exact(ay):
    top, bottom = ay.gen("x", B - 1), ay.gen("x", -B)
    assert (top * bottom).monomial_exps() == (0, -1, 0)
    assert (bottom * ay.gen("x")).monomial_exps() == (0, 1 - B, 0)
    assert ay.gen("x", 1 - B) ** -1 == top
    assert divide_exact(top * (1 + ay.gen("y")), 1 + ay.gen("y")) == top
    # the quotient of x^3 + 1 by x - y^(B-1) would need y^(2B-2): refused, not wrapped
    g = ay.gen("x") - ay.gen("y", B - 1)
    assert divide_exact(ay.gen("x", 3) + 1, g) is None
    assert divide_exact(g * (ay.gen("x") + 1), g) == ay.gen("x") + 1
    # eps has the whole field, as every generator does
    eps = Ring(["eps"])
    assert eps.gen("eps", B - 1).monomial_exps() == (B - 1,)
    assert (eps.gen("eps", -B) * eps.gen("eps", B - 1)).monomial_exps() == (-1,)
    with pytest.raises(RingError, match="overflow"):
        eps.gen("eps", B)
    with pytest.raises(RingError, match="non-integer exponent 1/3 on generator 'eps'"):
        eps.gen("eps", Fraction(1, 3))


def test_division_with_a_span_wider_than_a_field_is_a_ring_error(ay):
    x = ay.gen("x")
    with pytest.raises(RingError, match="overflow"):
        divide_exact(ay.gen("x", B - 1) + ay.gen("x", -B), x + 1)


field_exps = st.integers(-B, B - 1)


def key(ring, exps) -> int:
    """The packed key that ``Ring.monomial`` gives the exponent vector ``exps``."""
    return next(iter(poly(ring, {exps: 1}).terms))


@settings(max_examples=200, deadline=None)
@given(st.tuples(field_exps, field_exps, field_exps), st.tuples(field_exps, field_exps, field_exps))
def test_pack_round_trip_and_lex_order(u, v):
    ring = Ring(["a", "b", "eps"])
    ku, kv = key(ring, u), key(ring, v)
    assert ring.unpack(ku) == u and ring.unpack(kv) == v
    assert all(type(e) is int for e in ring.unpack(ku))
    assert (ku < kv) == (u < v)


def test_grlex_printing_and_denominators_disagreeing_with_packed_order():
    ring = Ring(["x", "y"])
    x, y = ring.gen("x"), ring.gen("y")
    p = 3 * x * y + 2 * y ** 3 - 5
    assert max(p.terms) == key(ring, (1, 1))  # the packed (lex) leader
    assert p.lead() == ((0, 3), 2)  # the grlex leader
    assert p.to_text() == "2 * y^3 + 3 * x * y - 5"
    assert p.to_terms_json() == [{"c": "2", "e": {"y": "3"}},
                                 {"c": "3", "e": {"x": "1", "y": "1"}},
                                 {"c": "-5", "e": {}}]
    for den, num in ((p, "1/2 * x + 1/2"),
                     (p * x ** -2 * y, "1/2 * x^3 * y^-1 + 1/2 * x^2 * y^-1")):
        q = (x + 1) / den
        assert str(q.num) == num
        assert str(q.den) == "y^3 + 3/2 * x * y - 5/2"


# -- no generator name is special ---------------------------------------------------

# small exponents, and exponents up to the field ends, where products overflow
any_exps = st.one_of(st.integers(-3, 3), st.integers(1 - B, B - 1))
named_terms = st.dictionaries(st.tuples(any_exps, any_exps), coeffs.filter(bool), max_size=3)


def outcome(op):
    """op(), or RingError when it raises one."""
    try:
        return op()
    except RingError:
        return RingError


def kernel_results(f, g, image, c) -> dict:
    """Kernel operations on f and g, whose ring is (a, name), keyed by operation."""
    ring = f.ring
    name = ring.names[1]
    monomial = ring.monomial({"a": image[0], name: image[1]}, c)
    return {"mul": outcome(lambda: f * g),
            "divide": outcome(lambda: divide_exact(f * g, g)),
            "derivative": outcome(lambda: f.derivative(name)),
            "substitute": outcome(lambda: f.substitute({name: monomial}).as_poly()),
            "graded": outcome(lambda: f.graded({name: 1, "a": 2})),
            "text": f.to_text()}


def renamed(value, ring):
    """A kernel result with the generators renamed to those of ``ring``, by position."""
    if isinstance(value, LaurentPoly):
        return poly(ring, dict(value.items()))
    if isinstance(value, dict):
        return {d: renamed(p, ring) for d, p in value.items()}
    if isinstance(value, str):
        return value.replace("eps", ring.names[1])
    return value


@settings(max_examples=150, deadline=None)
@given(named_terms, named_terms, st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       coeffs.filter(bool))
def test_renaming_eps_commutes_with_the_kernel(f, g, image, c):
    eps_ring, t_ring = Ring(["a", "eps"]), Ring(["a", "t"])
    by_eps = kernel_results(poly(eps_ring, f), poly(eps_ring, g), image, c)
    by_t = kernel_results(poly(t_ring, f), poly(t_ring, g), image, c)
    assert {op: renamed(v, t_ring) for op, v in by_eps.items()} == by_t

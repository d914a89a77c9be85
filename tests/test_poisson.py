"""Log-canonical brackets, the surface bracket, kernels and structure solves."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve_cubics import (NambuContext, PoissonStructure, Ring, RingError, casimir_kernel,
                             parse_poly, solve_structure)
from painleve_cubics.arcs import lambda_catalog
from painleve_cubics.cubics import cubic
from painleve_cubics.poisson import jacobiator


@pytest.fixture
def xy_structure():
    ring = Ring(["x", "y"])
    # {x, y} = 1 at the coordinate level, i.e. 1/4 on the e^{z/2} generators
    return ring, PoissonStructure.from_log_brackets(ring, {("x", "y"): 1})


def test_self_bracket_vanishes(xy_structure):
    ring, S = xy_structure
    gx = ring.gen("x")
    assert S.bracket(gx, gx).is_zero()


def test_exponential_convention(xy_structure):
    ring, S = xy_structure
    ex, ey = ring.e({"x": 1}), ring.e({"y": 1})
    assert S.bracket(ex, ey) == ring.e({"x": 1, "y": 1})


def test_pv_lambda_bracket_example():
    cat = lambda_catalog("PV")
    a, b = cat.entries["a"], cat.entries["b"]
    assert cat.shear_structure.bracket(a, b) == a * b


def test_leibniz_on_random_triples():
    cat = lambda_catalog("PV")
    S = cat.shear_structure
    ring = cat.shear_ring
    f = cat.entries["a"] + 2 * cat.entries["b"]
    g = cat.entries["c"] - ring.gen("s1")
    h = cat.entries["e"] ** 2 + 1
    lhs = S.bracket(f, g * h)
    rhs = S.bracket(f, g) * h + g * S.bracket(f, h)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_jacobi_on_lc_monomials(a, b, c):
    ring = Ring(["u", "v", "w"])
    S = PoissonStructure.from_log_brackets(
        ring, {("u", "v"): 1, ("v", "w"): 2, ("u", "w"): -3})
    f = ring.monomial({"u": a, "v": b})
    g = ring.monomial({"v": c, "w": a})
    h = ring.monomial({"u": b, "w": c}) + ring.one()
    assert jacobiator(S.bracket, f, g, h).is_zero()


def det_bracket(phi, f, g):
    """Independent surface-bracket oracle: full 3x3 Jacobian determinant."""
    names = ("x1", "x2", "x3")
    rows = [[p.derivative(n) for n in names] for p in (phi, f, g)]
    return (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))


def test_nambu_bracket_pvi_example():
    ctx = NambuContext(cubic("PVI").phi)
    ring = ctx.ring
    x1, x2, x3 = (ring.gen(n) for n in ("x1", "x2", "x3"))
    got = ctx.bracket(x1, x2)
    expect = x1 * x2 + 2 * x3 + cubic("PVI").omega[2]
    assert got == expect
    assert ctx.bracket(x1, x1).is_zero()
    # dual route: determinant formula agrees
    assert det_bracket(ctx.phi, x1, x2) == got


def test_phi_is_casimir_for_every_cubic():
    from painleve_cubics.cubics import tags
    for tag in tags():
        ctx = NambuContext(cubic(tag).phi)
        for n in ("x1", "x2", "x3"):
            assert ctx.bracket(ctx.phi, ctx.ring.gen(n)).is_zero(), tag


def test_nambu_jacobi_pvi():
    ctx = NambuContext(cubic("PVI").phi)
    xs = [ctx.ring.gen(n) for n in ("x1", "x2", "x3")]
    assert jacobiator(ctx.bracket, *xs).is_zero()


def test_casimir_kernel_pv():
    cat = lambda_catalog("PV")
    mono = dict(cat.entries)
    mono["G1"] = cat.shear_ring.gen("p1")
    mono["G2"] = cat.shear_ring.gen("p2")
    report = casimir_kernel(cat.shear_structure, mono)
    assert report.rank == 4
    names = set(report.kernel_names())
    assert names == {"d*e", "G1", "G2"}


def test_casimir_kernel_rejects_sums():
    cat = lambda_catalog("PV")
    with pytest.raises(RingError, match="needs monomials"):
        casimir_kernel(cat.shear_structure, {"bad": cat.entries["a"] + 1})


def test_solve_structure_pv_reproduces_quoted_brackets():
    cat = lambda_catalog("PV")
    res = solve_structure(cat.shear_ring, cat.entries, cat.table,
                          central=["p1", "p2"])
    assert not res.violations and not res.free_pairs
    S = res.structure
    assert S.log_bracket("s3", "k1") == 1
    assert S.log_bracket("k1", "k2") == 1
    assert S.log_bracket("k2", "s3") == 1
    assert S.table_residues(cat.entries, cat.table) == []


def test_table_residues_name_each_broken_entry(xy_structure):
    ring, S = xy_structure
    x, y = ring.gen("x"), ring.gen("y")
    images = {"x": x, "y": y, "q": x / (1 + y)}
    assert S.table_residues(images, {("x", "y"): Fraction(1, 4)}) == []
    # a wrong coefficient on polynomials, a quotient that does not commute
    bad = S.table_residues(images, {("x", "y"): 1, ("y", "x"): Fraction(-1, 4), ("x", "q"): 0})
    assert [(u, v) for u, v, _ in bad] == [("x", "y"), ("x", "q")]
    assert bad[0][2] == Fraction(-3, 4) * x * y
    assert not bad[1][2].is_poly()
    q = images["q"]
    assert S.bracket_expr(q, y, 2) == S.bracket_expr(q, y) - 2 * q * y


@pytest.mark.parametrize("pairs, message", [
    ({("a", "z"): 1}, r"pairing on unknown generators \(a,z\)"),
    ({("a", "a"): 1}, "nonzero diagonal pairing"),
    ({("a", "b"): 1, ("b", "a"): 1}, r"conflicting pairing on \(b,a\)"),
], ids=["unknown-generator", "diagonal", "conflicting"])
def test_constructor_rejects_a_bad_pairing(pairs, message):
    with pytest.raises(RingError, match=message):
        PoissonStructure(Ring(("a", "b")), pairs)


def test_bracket_refuses_an_argument_from_another_ring(xy_structure):
    ring, S = xy_structure
    with pytest.raises(RingError, match="bracket arguments outside the structure's ring"):
        S.bracket(ring.gen("x"), Ring(["z"]).gen("z"))


@pytest.mark.parametrize("phi, message", [
    (Ring(["x1", "x2"]).gen("x1"), "missing coordinate 'x3'"),
    (Ring(["x1", "x2", "x3"]).gen("x2", -1), "phi must be polynomial in the surface coordinates"),
], ids=["missing-coordinate", "negative-power"])
def test_nambu_context_refuses_a_bad_phi(phi, message):
    with pytest.raises(RingError, match=message):
        NambuContext(phi)


def test_solve_structure_trivial_and_inconsistent():
    ring = Ring(["a", "b"])
    mono = {"m": ring.gen("a")}
    res = solve_structure(ring, mono, {})
    assert not res.violations
    assert all(res.structure.pair(u, v) == 0 for u in ring.names for v in ring.names)
    # a monomial cannot bracket nontrivially with itself
    bad = solve_structure(ring, {"m": ring.gen("a"), "n": ring.gen("a")},
                          {("m", "n"): Fraction(1)})
    assert bad.violations


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_leibniz_random_triples(i, j, k):
    cat = lambda_catalog("PII_JM")
    S = cat.shear_structure
    ring = cat.shear_ring
    names = list(cat.entries)
    f = cat.entries[names[i]] + 1
    g = cat.entries[names[j]] - ring.gen("s2", -1)
    h = cat.entries[names[k]] ** 2
    assert S.bracket(f, g * h) == S.bracket(f, g) * h + g * S.bracket(f, h)


def test_jacobi_on_generator_triples_all_catalogs():
    from itertools import combinations
    for tag in ("PV", "PVdeg", "PIV", "PIII_tilde", "PII_JM", "PII_FN"):
        cat = lambda_catalog(tag)
        S = cat.shear_structure
        gens = [cat.shear_ring.gen(n) for n in cat.shear_ring.names]
        for f, g, h in combinations(gens, 3):
            assert jacobiator(S.bracket, f, g, h).is_zero(), tag

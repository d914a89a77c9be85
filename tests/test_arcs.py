"""Arc words, cusp brackets, lambda catalogs, commutants and signatures."""

from fractions import Fraction

import pytest

from painleve_cubics import Ring, catalog, parse_expr, parse_poly
from painleve_cubics.arcs import lambda_catalog, signature
from painleve_cubics.checks.arcs import (arc_trace_check, casimir_check, comb_bracket,
                                         comb_bracket_check, commutant_check, edge_matrix,
                                         lamination_count_check, mat_det, mat_mul,
                                         pvi_from_pv_check, signature_check, solve_structure_check,
                                         verify_lambda_table, word_matrix, word_trace)

from laurent import evaluate


def test_word_matrices_unimodular():
    ring = Ring(["z1", "z2"])
    m = word_matrix(ring, ["X(z1)", "R", "X(z2)", "L", "R"])
    assert mat_det(m).is_one()


def test_edge_matrix_squares_to_minus_identity():
    ring = Ring(["z"])
    x = edge_matrix(ring, "z")
    sq = mat_mul(x, x)
    assert sq[0][0] == -1 and sq[1][1] == -1
    assert sq[0][1].is_zero() and sq[1][0].is_zero()


def test_worked_arc_trace():
    ring = Ring(["s2", "s3", "p2", "k1"])
    word = catalog.load("lambdas")["arc_trace"]["word"]
    trace = word_trace(ring, word, close_with_K=True)
    b = ring.e({"k1": 1, "s2": 1, "s3": 1, "p2": Fraction(1, 2)})
    assert trace == b
    assert arc_trace_check().passed
    # independent route: exact numeric product of 2x2 matrices at a sample point
    point = {"s2": Fraction(3), "s3": Fraction(5, 2), "p2": Fraction(7), "k1": Fraction(2)}
    assert evaluate(trace, point) == evaluate(b, point)


def test_comb_bracket_worked_pairs():
    b = (("1", 3), ("1", 4))
    d = (("2", 1), ("1", 8))
    assert comb_bracket(b, d) == Fraction(-1, 2)
    assert comb_bracket(b, b) == 0
    assert comb_bracket((("1", 1), ("1", 2)), (("2", 5), ("3", 1))) == 0
    assert comb_bracket(d, b) == Fraction(1, 2)
    assert comb_bracket_check().passed


TABLE_TAGS = ["PV", "PVdeg", "PIV", "PIII_hat", "PIII_tilde", "PII_JM", "PII_FN"]


@pytest.mark.parametrize("tag", TABLE_TAGS)
def test_lambda_tables(tag):
    assert verify_lambda_table(tag).passed


def test_lambda_table_spot_values():
    pv = lambda_catalog("PV")
    assert pv.table[("a", "d")] == Fraction(-1, 2)
    jm = lambda_catalog("PII_JM")
    assert jm.table[("g", "i")] == Fraction(-1, 4)
    hat = lambda_catalog("PIII_hat")
    a, c = hat.entries["a"], hat.entries["c"]
    assert len(a.terms) == 2 and len(hat.entries["b"].terms) == 3
    assert hat.shear_structure.bracket(a, c).is_zero()


@pytest.mark.parametrize("tag", ["PV", "PVdeg", "PIV", "PIII_tilde", "PII_JM", "PII_FN"])
def test_structure_solves(tag):
    assert solve_structure_check(tag).passed


@pytest.mark.parametrize("tag,casimirs,dim", [
    ("PV", {"G1", "G2", "d*e"}, 4),
    ("PIII_tilde", {"d*e", "g*h"}, 6),
    ("PII_JM", {"b*d*e*g*h*i"}, 8),
    ("PII_FN", {"G1", "b*d*h"}, 4),
    ("PIV", {"G1", "b*d*e*h"}, 6),
    ("PIII_D7", {"c", "g*h"}, 4),
    ("PIII_D8", {"c", "a*b^-1*h^2"}, 2),
])
def test_casimirs(tag, casimirs, dim):
    cat = lambda_catalog(tag)
    assert set(cat.casimirs) == casimirs
    assert cat.leaf_dim == dim
    assert casimir_check(tag).passed


@pytest.mark.parametrize("tag", ["PV", "PVdeg", "PII_FN"])
def test_commutants(tag):
    assert commutant_check(tag).passed


def test_pv_x1_commutes_with_frozen_arc():
    cat = lambda_catalog("PV")
    x1 = parse_expr(catalog.load("lambdas")["catalogs"]["PV"]["xexprs"]["x1"], cat.lambda_ring)
    br = cat.structure.bracket_expr(x1, cat.lambda_ring.gen("e"))
    assert br.is_zero()


def test_fn_x1_is_minus_bf():
    cat = lambda_catalog("PII_FN")
    ring = cat.lambda_ring
    text = catalog.load("lambdas")["catalogs"]["PII_FN"]["xexprs"]["x1"]
    assert parse_poly(text, ring) == -(ring.gen("b") * ring.gen("f"))


def test_pvi_from_pv():
    assert pvi_from_pv_check().passed


def test_signatures_table_rows():
    pv = signature("PV")
    assert (len(pv.holes), sum(pv.holes)) == (3, 2)
    assert pv.dimension() == 7
    assert pv.katz() == (0, 0, 1)
    assert pv.pole_orders() == (2, 2, 4)
    jm = signature("PII_JM")
    assert jm.dimension() == 9 and jm.katz() == (3,) and jm.pole_orders() == (8,)
    pi = signature("PI")
    assert pi.katz() == (Fraction(5, 2),)
    d6 = signature("PIII_D6")
    assert d6.dimension() == 8 and d6.katz() == (0, 1, 1)


@pytest.mark.parametrize("tag", ["PVI", "PV", "PVdeg", "PIV", "PIII_D6", "PIII_D7",
                                 "PIII_D8", "PII_FN", "PII_JM", "PI",
                                 "Weierstrass", "Airy"])
def test_signature_certificates(tag):
    assert signature_check(tag).passed


@pytest.mark.parametrize("tag", ["PV", "PVdeg", "PIV", "PIII_tilde", "PII_JM", "PII_FN"])
def test_lamination_counts(tag):
    assert lamination_count_check(tag).passed


def test_random_words_are_unimodular():
    import random
    from painleve_cubics.checks.arcs import cusp_matrix
    rng = random.Random(11)
    ring = Ring(["z1", "z2", "z3"])
    alphabet = ["R", "L", "X(z1)", "X(z2)", "X(z3)"]
    for _ in range(12):
        word = [rng.choice(alphabet) for _ in range(rng.randint(1, 9))]
        assert mat_det(word_matrix(ring, word)).is_one(), word


def test_comb_bracket_structure_satisfies_jacobi():
    # the induced constant structure on the indexed arcs is log-canonical,
    # so its Jacobiator vanishes on the arc symbols
    from painleve_cubics.poisson import PoissonStructure, jacobiator
    b = (("1", 3), ("1", 4))
    d = (("2", 1), ("1", 8))
    ring = Ring(["gb", "gd"])
    S = PoissonStructure(ring, {("gb", "gd"): comb_bracket(b, d)})
    gb, gd = ring.gen("gb"), ring.gen("gd")
    assert jacobiator(S.bracket, gb, gd, gb * gd).is_zero()


@pytest.mark.parametrize("tag", list(catalog.load("lambdas")["catalogs"]))
def test_structures_are_built_once(tag):
    assert lambda_catalog(tag).structure is lambda_catalog(tag).structure
    assert lambda_catalog(tag).shear_structure is lambda_catalog(tag).shear_structure


def test_subset_catalog_shares_its_parents_shear_structure():
    shear = lambda_catalog("PIII_tilde").shear_structure
    assert shear is not None
    assert lambda_catalog("PIII_D7").shear_structure is shear
    assert lambda_catalog("PIII_D8").shear_structure is shear


@pytest.mark.parametrize("tag", list(catalog.load("lambdas")["catalogs"]))
def test_central_shear_is_the_perimeters_one_per_parameter(tag):
    # derived from the log brackets: the shear generators no bracket names
    cat = lambda_catalog(tag)
    perimeters = tuple(z for z in cat.shear_ring.names if z.startswith("p"))
    assert cat.central_shear == (perimeters if cat.params else ())
    assert len(cat.central_shear) == len(cat.params)


def test_grafted_structure_is_theta_plus_one_graft_per_cusp_pair():
    # PIV: k1k2 grafted on s3 and k3k4 on s2, over {s1,s2} = {s2,s3} = {s3,s1} = 1
    log = lambda_catalog("PIV").shear_structure.log_bracket
    assert (log("s1", "s2"), log("s2", "s3"), log("s3", "s1")) == (1, 1, 1)
    assert (log("s3", "k1"), log("s3", "k2"), log("k1", "k2")) == (1, -1, 1)
    assert (log("s2", "k3"), log("s2", "k4"), log("k3", "k4")) == (1, -1, 1)
    assert log("s1", "k1") == log("k1", "k3") == log("p1", "s1") == 0

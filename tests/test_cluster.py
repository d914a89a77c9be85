"""Braids, generalized mutations, the Laurent property, Dehn twists."""

from fractions import Fraction

import pytest

from painleve_cubics.cluster import (base_values, braid_images,
                                     braid_involution_check, braid_preserves_cubic,
                                     braid_ring, cluster_ring, dehn_twist,
                                     initial_cluster, laurent_check, mutate,
                                     mutation_involution_check, reduced_words,
                                     run_sequence, shifted_cubic, shifted_cubic_check,
                                     surface_invariance, twist_case,
                                     twist_frozen_commutation, twist_invariants)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_braids_preserve_cubic(i):
    assert braid_preserves_cubic(i).passed
    assert braid_involution_check(i).passed


def test_braid_formula_shape():
    ring = braid_ring()
    m = braid_images(1, ring)
    x1, x2, x3, w1 = (ring.gen(n) for n in ("x1", "x2", "x3", "w1"))
    assert m["x1"] == -x1 - x2 * x3 - w1
    assert m["x2"] == x3 and m["x3"] == x2


def test_braid_on_points():
    m = braid_images(1)
    point = {"x1": 1, "x2": 2, "x3": 3, "w1": 5}
    moved = tuple(m[n].evaluate(point) for n in ("x1", "x2", "x3"))
    assert moved == (-1 - 6 - 5, 3, 2)


def test_exchange_relation():
    ring = cluster_ring()
    cl = initial_cluster(ring)
    new = mutate(1, cl, ring)
    product = (new[1] * cl[1]).as_poly()
    y2, y3, G1 = ring.gen("y2"), ring.gen("y3"), ring.gen("G1")
    assert product == y2 ** 2 + y3 ** 2 + G1 * y2 * y3


@pytest.mark.parametrize("i", [1, 2, 3])
def test_mutation_involution(i):
    assert mutation_involution_check(i).passed


@pytest.mark.parametrize("i", [1, 2, 3])
def test_surface_invariance(i):
    assert surface_invariance(i).passed


def test_shifted_cubic_constant_vanishes():
    assert shifted_cubic_check().passed


def test_depth_one_denominator():
    ring = cluster_ring()
    cl = run_sequence((1,), ring)
    poly = cl[1].as_poly()
    content = dict(zip(ring.names, poly.content_exps()))
    assert content["y1"] == -1 and content["y2"] == 0 and content["y3"] == 0


def test_depth_two_denominator():
    # after mutating 1 then 2 the new second variable clears to y1^-2 y2^-1:
    # its numerator is not divisible by y1 (frozen exact outcome)
    ring = cluster_ring()
    cl = run_sequence((1, 2), ring)
    poly = cl[2].as_poly()
    content = dict(zip(ring.names, poly.content_exps()))
    assert content["y1"] == -2 and content["y2"] == -1


def test_word_count():
    words = reduced_words(4)
    assert len([w for w in words if len(w) == 4]) == 24
    assert len(words) == 3 + 6 + 12 + 24


def test_laurent_phenomenon_depth_four():
    cert = laurent_check(4)
    assert cert.passed
    assert "45" in cert.anchor


@pytest.mark.parametrize("depth", [0, -3])
def test_laurent_depth_below_one_raises(depth):
    # "all 0 reduced sequences" would be a vacuous pass
    from painleve_cubics import run_suite
    with pytest.raises(ValueError, match="at least 1"):
        laurent_check(depth)
    with pytest.raises(ValueError, match="at least 1"):
        run_suite(["cluster"], depth=depth)


def test_composite_mutations_stay_on_surface():
    # the cubic transported along a length-2 sequence is still divisible by it
    ring = cluster_ring()
    y = run_sequence((1, 2), ring)
    phi = shifted_cubic(ring)
    G1, G2, G3 = (ring.gen(n) for n in ("G1", "G2", "G3"))
    value = (y[1] * y[2] * y[3] + y[1] ** 2 + y[2] ** 2 + y[3] ** 2
             + G1 * y[2] * y[3] + G2 * y[1] * y[3] + G3 * y[1] * y[2])
    from painleve_cubics.ring import divide_exact
    assert divide_exact((value * value.den).as_poly(), phi) is not None


@pytest.mark.parametrize("case", ["PV", "PVdeg", "PIII_D6", "PIII_D8"])
def test_twists(case):
    assert twist_invariants(case).passed
    assert twist_frozen_commutation(case).passed


def test_pv_twist_formulas():
    case = twist_case("PV")
    vals = dehn_twist(case, base_values(case))
    ring = case.ring
    a, b, c = ring.gen("a"), ring.gen("b"), ring.gen("c")
    G1 = ring.gen("G1")
    assert (vals["a"] * a).as_poly() == b ** 2 + c ** 2 + G1 * b * c


def test_twist_repeats_stay_laurent_positive():
    case = twist_case("PIII_D8")
    vals = base_values(case)
    for _ in range(3):
        vals = dehn_twist(case, vals)
    assert vals["a"].is_poly() and vals["b"].is_poly()

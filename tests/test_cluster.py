"""Braids, generalized mutations, the Laurent property, Dehn twists."""

from fractions import Fraction

import pytest

from painleve_cubics import cluster
from painleve_cubics.checks import cluster as cluster_checks
from painleve_cubics.checks.cluster import (braid_images, braid_involution_check,
                                            braid_preserves_cubic, laurent_check,
                                            mutation_involution_check, orbit_representatives,
                                            reduced_words, relabelling_failures, run_sequence,
                                            shifted_cubic, shifted_cubic_check, surface_invariance,
                                            twist_frozen_commutation, twist_invariants)
from painleve_cubics.cluster import (CLUSTER_RING, base_values, dehn_twist, initial_cluster, mutate,
                                     twist_case)
from painleve_cubics.cubics import W_RING

from laurent import content as laurent_content, evaluate


@pytest.mark.parametrize("i", [1, 2, 3])
def test_every_cluster_value_reads_as_num_over_den(i):
    # perfbench/spans.py reads len(result[i].num.terms) after every mutate
    for cl in (mutate(i, initial_cluster()), run_sequence((i, i % 3 + 1, i))):
        for value in cl.values():
            assert isinstance(value.num.terms, dict) and value.den.is_one()


@pytest.mark.parametrize("i", [1, 2, 3])
def test_braids_preserve_cubic(i):
    assert braid_preserves_cubic(i).passed
    assert braid_involution_check(i).passed


def test_braid_formula_shape():
    m = braid_images(1)
    x1, x2, x3, w1 = (W_RING.gen(n) for n in ("x1", "x2", "x3", "w1"))
    assert m["x1"] == -x1 - x2 * x3 - w1
    assert m["x2"] == x3 and m["x3"] == x2


def test_braid_on_points():
    m = braid_images(1)
    point = {"x1": 1, "x2": 2, "x3": 3, "w1": 5}
    moved = tuple(evaluate(m[n], point) for n in ("x1", "x2", "x3"))
    assert moved == (-1 - 6 - 5, 3, 2)


def test_exchange_relation():
    ring = CLUSTER_RING
    cl = initial_cluster()
    new = mutate(1, cl)
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
    ring = CLUSTER_RING
    cl = run_sequence((1,))
    poly = cl[1].as_poly()
    content = dict(zip(ring.names, laurent_content(poly)))
    assert content["y1"] == -1 and content["y2"] == 0 and content["y3"] == 0


def test_depth_two_denominator():
    # after mutating 1 then 2 the new second variable clears to y1^-2 y2^-1:
    # its numerator is not divisible by y1 (frozen exact outcome)
    ring = CLUSTER_RING
    cl = run_sequence((1, 2))
    poly = cl[2].as_poly()
    content = dict(zip(ring.names, laurent_content(poly)))
    assert content["y1"] == -2 and content["y2"] == -1


def test_word_count():
    words = reduced_words(4)
    assert len([w for w in words if len(w) == 4]) == 24
    assert len(words) == 3 + 6 + 12 + 24


def test_laurent_phenomenon_depth_four():
    cert = laurent_check(4)
    assert cert.passed
    assert "45" in cert.anchor


def test_laurent_phenomenon_depth_five():
    cert = laurent_check(5)
    assert cert.passed
    assert cert.anchor == "all 93 reduced sequences of length <= 5"


def test_exchange_polynomials_are_relabelling_equivariant():
    assert relabelling_failures() == []


@pytest.mark.parametrize("depth, count", [(1, 1), (2, 2), (4, 8), (5, 16)])
def test_orbit_representatives_cover_every_word(depth, count):
    # each reduced word is the relabelling of exactly one representative
    reps = orbit_representatives(depth)
    assert len(reps) == count
    perms = [dict(zip((1, 2, 3), p)) for p in
             ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))]
    orbit = {tuple(p[i] for i in w) for w in reps for p in perms}
    assert orbit == set(reduced_words(depth))


def test_relabelled_word_gives_relabelled_cluster():
    # sigma = (1 2 3) carries the word (1, 2, 3) to (2, 3, 1) and y_t, G_t to y_s(t), G_s(t)
    ring = CLUSTER_RING
    sigma = {1: 2, 2: 3, 3: 1}
    images = {f"{s}{t}": ring.gen(f"{s}{sigma[t]}") for s in ("y", "G") for t in sigma}
    base = run_sequence((1, 2, 3))
    moved = run_sequence((2, 3, 1))
    for t in (1, 2, 3):
        assert moved[sigma[t]] == base[t].substitute(images)


def test_asymmetric_exchange_fails_through_the_symmetry_check(monkeypatch):
    # 2*y_j^2 + y_k^2 + G_i*y_j*y_k keeps both depth-2 representatives Laurent
    # but is not equivariant, so the orbit reduction must not be trusted
    def lopsided(i, cl):
        j, k = [t for t in (1, 2, 3) if t != i]
        return 2 * cl[j] ** 2 + cl[k] ** 2 + cl[i].ring.gen(f"G{i}") * cl[j] * cl[k]

    monkeypatch.setattr(cluster, "exchange_polynomial", lopsided)
    assert all(run_sequence(w)[i].is_poly() for w in orbit_representatives(2) for i in (1, 2, 3))
    cert = laurent_check(2)
    assert not cert.passed
    assert cert.anchor == "all 9 reduced sequences of length <= 2"
    assert cert.detail == "relabelling symmetry fails"
    assert all(f"({a} {b}) breaks" in cert.residue for a, b in ((1, 2), (1, 3), (2, 3)))


def test_non_laurent_mutation_is_named_as_a_witness(monkeypatch):
    # dividing by y_i + 1 keeps the exchange polynomials equivariant, so the
    # symmetry check passes and the genuine quotient is reported with its word
    def shifted(i, cl):
        return {**cl, i: cluster.exchange_polynomial(i, cl) / (cl[i] + 1)}

    monkeypatch.setattr(cluster_checks, "mutate", shifted)
    cert = laurent_check(1)
    assert not cert.passed and cert.detail == ""
    assert cert.residue == "[((1,), 1, 'y1 + 1')]"


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
    ring = CLUSTER_RING
    y = run_sequence((1, 2))
    phi = shifted_cubic(ring)
    G1, G2, G3 = (ring.gen(n) for n in ("G1", "G2", "G3"))
    value = (y[1] * y[2] * y[3] + y[1] ** 2 + y[2] ** 2 + y[3] ** 2
             + G1 * y[2] * y[3] + G2 * y[1] * y[3] + G3 * y[1] * y[2])
    from painleve_cubics.division import divide_exact
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

"""Cubic catalog entries and the standalone surface identities."""

from fractions import Fraction

import pytest

from painleve_cubics import Ring, RingError, catalog, parse_expr, parse_poly
from painleve_cubics.checks import cubics as cubic_checks
from painleve_cubics.checks.cubics import (ROW_RING, fn_jm_diffeo_check, table1_check,
                                           torus_param_check, volume_form_check)
from painleve_cubics.checks.unfolding import singular_point_check
from painleve_cubics.cubics import cubic, cubic_form, tags
from painleve_cubics.verbs.export import omega_from_G

from laurent import evaluate


def test_tag_list():
    assert tags() == ["PVI", "PV", "PVdeg", "PIV", "PIII_D6", "PIII_D7",
                      "PIII_D8", "PII_JM", "PII_FN", "PI", "Weierstrass"]


def test_unknown_cubic_tag_is_an_unknown_entry():
    with pytest.raises(catalog.UnknownEntry) as info:
        cubic("PX")
    assert info.value.args == ("cubics.json cubics has no 'PX' (have PVI, PV, PVdeg, PIV, PIII_D6, "
                               "PIII_D7, PIII_D8, PII_JM, PII_FN, PI, Weierstrass)",)


def test_pi_reference_polynomial():
    c = cubic("PI")
    ring = c.ring
    x1, x2, x3 = (ring.gen(n) for n in ("x1", "x2", "x3"))
    assert c.phi_specialized == x1 * x2 * x3 - x1 - x2 + 1
    assert c.phi_display() == "x1 x2 x3 - x1 - x2 + 1"


def test_pvi_eps():
    assert cubic("PVI").eps == (1, 1, 1)
    assert cubic("PII_JM").eps == (0, 0, 0)
    assert cubic("PII_FN").eps == (1, 0, 0)


def test_cubic_form_on_values():
    # 1*2*3 + 1^2 + (1*1 + 1*2 + 1*3) + 1
    assert cubic_form((1, 2, 3), (1, 0, 0), (1, 1, 1, 1)) == 14
    c = cubic("PIV")
    ring = c.ring
    xs = tuple(ring.gen(n) for n in ("x1", "x2", "x3"))
    assert cubic_form(xs, c.eps, c.omega) == c.phi
    ratios = tuple(x / (x + 1) for x in xs)
    value = cubic_form(ratios, c.eps, c.omega)
    point = {"x1": 2, "x2": 3, "x3": 5, "G1": 7, "G2": 11, "G3": 13, "Ginf": 17}
    at = {n: Fraction(point[n], point[n] + 1) for n in ("x1", "x2", "x3")}
    assert evaluate(value, point) == evaluate(c.phi, {**point, **at})


def test_weierstrass_phi():
    c = cubic("Weierstrass")
    ring = c.ring
    x1, x2, x3 = (ring.gen(n) for n in ("x1", "x2", "x3"))
    assert c.phi_specialized == x1 * x2 * x3 - x2 + 1


def test_omega_from_G_examples():
    ring = cubic("PVI").ring
    G1, G2, G3, Gf = (ring.gen(n) for n in ("G1", "G2", "G3", "Ginf"))
    w = omega_from_G((1, 1, 1), ring)
    assert w[0] == -G1 * Gf - G2 * G3
    w_jm = omega_from_G((0, 0, 0), ring)
    assert w_jm[0] == -G1 * Gf
    # all parameters = 2
    point = {"G1": 2, "G2": 2, "G3": 2, "Ginf": 2}
    assert evaluate(w[3], point) == 28


def test_generic_omega_matches_catalog_up_to_documented_overrides():
    overridden = {"PIII_D6": (2, 3), "PIII_D7": (3,), "PIII_D8": (3,)}
    zeroed = {"PVdeg": ["G3"], "PII_FN": ["G3"], "PI": ["G3"],
              "PIII_D7": ["G3"], "PIII_D8": ["G1", "G3"], "Weierstrass": ["G1", "G3"]}
    for tag in tags():
        c = cubic(tag)
        generic = omega_from_G(c.eps, c.ring)
        kill = {name: c.ring.const(0) for name in zeroed.get(tag, [])}
        for i in range(4):
            value = generic[i].substitute(kill).as_poly() if kill else generic[i]
            if i in overridden.get(tag, ()):
                continue
            assert value == c.omega[i], (tag, i)


def test_unit_point_on_pvi_cubic():
    # independent arithmetic: at all parameters 2 and x_i = -7 the cubic closes
    phi = cubic("PVI").phi
    val = evaluate(phi, {"x1": -7, "x2": -7, "x3": -7,
                         "G1": 2, "G2": 2, "G3": 2, "Ginf": 2})
    assert val == 0
    assert (-343) + 3 * 49 + 3 * ((-8) * (-7)) + 28 == 0


@pytest.mark.parametrize("tag", ["PVI", "PV", "PVdeg", "PIV", "PIII_D6", "PIII_D7",
                                 "PIII_D8", "PII_JM", "PII_FN", "PI", "Weierstrass"])
def test_volume_form_coefficients(tag):
    assert volume_form_check(tag).passed


def test_volume_form_fails_on_a_coefficient_phi_was_not_built_from(monkeypatch):
    # w1 + 1 in omega but not in phi: d(phi)/d(x1) misses the expected gradient by 1
    c = cubic("PV")
    shifted = c._replace(omega=(c.omega[0] + 1, *c.omega[1:]))
    monkeypatch.setattr(cubic_checks, "cubic", lambda tag: shifted)
    cert = volume_form_check("PV")
    assert not cert.passed and cert.residue == "-1"


@pytest.mark.parametrize("tag,status", [
    ("PVI", "exact"), ("PV", "exact_rational"), ("PIII_D6", "exact_after_sign_flip"),
    ("PIII_D7", "exact"), ("PIII_D8", "exact"), ("PII_JM", "exact"), ("PI", "exact"),
    ("Weierstrass", "exact"), ("PVdeg", "documented_mismatch"),
    ("PIV", "documented_mismatch"), ("PII_FN", "documented_mismatch"),
])
def test_reference_rows(tag, status):
    assert cubic(tag).table1_status == status
    assert table1_check(tag).passed


def test_pv_reference_rational_identity_detail():
    # the rational constant of the reference row equals the polynomial form
    c = cubic("PV")
    params = {w: parse_expr(s, c.ring)
              for w, s in catalog.load("cubics")["cubics"]["PV"]["table1_params"].items()}
    assert parse_expr(c.table1, ROW_RING).substitute(params, c.ring) == c.phi_specialized


def test_torus_parametrization():
    cert = torus_param_check()
    assert cert.passed
    # numeric spot check mirrored independently
    u, v = Fraction(2), Fraction(3)
    x1, x2, x3 = -u - 1 / u, -v - 1 / v, -u * v - 1 / (u * v)
    assert x1 * x2 * x3 + x1 ** 2 + x2 ** 2 + x3 ** 2 - 4 == 0


def test_fn_diffeo():
    assert fn_jm_diffeo_check().passed


def test_fn_diffeo_excludes_vanishing_denominator():
    ring = Ring(["x1", "x2", "x3", "sp"])
    x1, x2, x3, s = (ring.gen(n) for n in ring.names)
    image = (s ** 2 * x1 ** 2 - (1 + x1 * x2) * x3 * s ** -1) / (x1 * x2)
    with pytest.raises(RingError):
        evaluate(image, {"x1": 1, "x2": 0, "x3": 1, "sp": 2})


def test_singular_points():
    g = {"G1": 2, "G2": 2}
    assert singular_point_check("PVdeg", g, (1, 0, 2))
    assert singular_point_check("PVdeg", g, (0, 1, 2))
    assert not singular_point_check("PVdeg", g, (1, 1, 1))


def test_unknown_tag_rejected():
    with pytest.raises(catalog.UnknownEntry):
        cubic("P7")

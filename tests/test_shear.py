"""Shear charts, flips and the flipped-coordinate brackets."""

from fractions import Fraction

import pytest

from painleve_cubics import Ring, catalog, parse_expr, parse_poly
from painleve_cubics.catalog import SHEAR_NAMES
from painleve_cubics.checks import shear as shear_checks
from painleve_cubics.checks.shear import (chart_phi_residue, flip, flip_involution_check,
                                          pv_to_piii_change, verify_chart, verify_flip_braid)
from painleve_cubics.cubics import G_NAMES, tags
from painleve_cubics.ring import GenImage
from painleve_cubics.shear import SHEAR_RING, chart

from laurent import evaluate

ALL_TAGS = tags()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_chart_satisfies_cubic(tag):
    assert chart_phi_residue(tag).is_zero()


def test_chart_term_counts():
    # symbolic forms: parameters left uninterpreted
    ring = Ring(SHEAR_NAMES + G_NAMES)
    pvi_x1 = parse_poly(chart("PVI").x_sym[0], ring)
    assert len(pvi_x1.terms) == 5
    d8_x2 = parse_poly(chart("PIII_D8").x_sym[1], ring)
    assert len(d8_x2.terms) == 1
    assert d8_x2 == -ring.e({"s3": 1, "s1": -1, "p3": Fraction(1, 2), "p1": Fraction(-1, 2)})


def test_pi_chart_has_no_third_parameter():
    assert chart("PI").G["G3"].is_zero()


def test_pvi_chart_unit_point():
    unit = {n: 1 for n in SHEAR_RING.names}
    for x in chart("PVI").x:
        assert evaluate(x, unit) == -7


@pytest.mark.parametrize("i, j, k", [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
def test_flip_images(i, j, k):
    # the generalized mutation of theta gives the flips as they were first
    # written by hand, over the cyclic order (i, j, k): the same values, the
    # same granularities and the same texts
    reference = {f"s{i}": (f"e[-p{i}/2-s{i}/2]", 1),
                 f"s{j}": (f"e[s{k}]*(1+e[s{i}])*(1+e[s{i}+p{i}])", 2),
                 f"s{k}": (f"e[s{j}]/((1+e[-s{i}])*(1+e[-s{i}-p{i}]))", 2),
                 f"p{j}": (f"e[p{k}/2]", 1),
                 f"p{k}": (f"e[p{j}/2]", 1)}
    images = flip(i)
    assert sorted(images) == sorted(reference)
    for name, (text, granularity) in reference.items():
        expected = parse_expr(text, SHEAR_RING)
        assert images[name].granularity == granularity
        assert images[name].expr == expected
        assert images[name].expr.to_text() == expected.to_text()


def test_flip_involution_on_s2():
    ring = SHEAR_RING
    m = flip(1)
    es2 = ring.e({"s2": 1})
    assert es2.substitute(m).substitute(m) == es2


@pytest.mark.parametrize("i", [1, 2, 3])
def test_flip_involution_certificates(i):
    assert flip_involution_check(i).passed


def test_flip_that_is_not_an_involution_fails(monkeypatch):
    # f1 with its image of e^{s2} doubled: applied twice, e^{s2} comes back
    # doubled, so the residue is e^{s2}, which prints as s2^2 (g_s2 = e^{s2/2})
    def doubled(i):
        images = flip(i)
        images["s2"] = GenImage(2 * images["s2"].expr, granularity=2)
        return images

    monkeypatch.setattr(shear_checks, "flip", doubled)
    cert = flip_involution_check(1)
    assert not cert.passed
    assert cert.residue == "s2^2"


@pytest.mark.parametrize("i,expected", [(1, "braid 1"), (2, "braid 2"), (3, "braid 3")])
def test_flip_braid_match(i, expected):
    cert = verify_flip_braid(i)
    assert cert.passed
    assert expected in cert.detail


def test_pv_to_piii_brackets():
    # the certificate compares every computed pair with the quoted table,
    # unlisted pairs as zero
    cert = pv_to_piii_change()
    assert cert.passed
    quoted = catalog.pairs(catalog.load("lambdas")["pv_to_piii"], "log_brackets")
    assert quoted[("s2", "p2")] == 2
    assert quoted[("k1", "k2")] == 1


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_chart_normalizations(tag):
    from painleve_cubics.checks.shear import chart_normalization_check
    assert chart_normalization_check(tag).passed


def test_pv_normalization_hits_unit_parameter():
    from painleve_cubics.shear import chart
    ch = chart("PV")
    substs = catalog.load("charts")["charts"]["PV"]["normalization_subst"]
    images = {gen: GenImage(parse_expr(s["image"], ch.ring), shear_checks.GRANULARITY[s["power"]])
              for gen, s in substs.items()}
    constrained = ch.G["Ginf"].substitute(images)
    assert constrained.is_poly() and constrained.as_poly().is_one()

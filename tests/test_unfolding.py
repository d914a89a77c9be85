"""Normal-form certificates for the singular-fibre families."""

from fractions import Fraction

import pytest

from painleve_cubics import Ring, catalog, unfolding
from painleve_cubics.checks.unfolding import (_implicit_case, checks, hat_param_rank_check,
                                              singular_points_check, unfold_a1_pvdeg, unfold_d4)
from painleve_cubics.division import divide_exact
from painleve_cubics.unfolding import W_RING, hat_param_table


def test_hat_parameters():
    table = hat_param_table()
    ring = W_RING
    w1, w2, w3, w4 = (ring.gen(n) for n in ("w1", "w2", "w3", "w4"))
    assert table["wh2"] == (w2 - w1) * Fraction(1, 2)
    assert table["wh3"] == w3 + 8
    zero = {n: ring.const(0) for n in ("w1", "w2", "w3", "w4")}
    values = []
    for name in ("wh1", "wh2", "wh3", "wh4"):
        p = table[name]
        for n, image in zero.items():
            p = p.substitute({n: image}).as_poly()
        values.append(p.constant_value())
    assert values == [-8, 0, 8, 4]


def test_hat_parameter_rank():
    cert = hat_param_rank_check("d4")
    assert cert.passed
    assert "rank 4" in cert.detail


def test_d4_certificate():
    cert = unfold_d4("d4")
    assert cert.passed
    assert "Morse coefficient 1" in cert.detail


def test_a3_and_a2():
    assert _implicit_case("a3").passed
    assert _implicit_case("a2").passed


def test_a1_pii_relation_is_monic_quadratic():
    # -1/u - u = x2^2 clears to u^2 + x2^2 u + 1 = 0
    ring = Ring(["x2", "u"])
    u, x2 = ring.gen("u"), ring.gen("x2")
    relation = ((-(u ** -1) - u) - x2 ** 2) * u
    assert relation == -(u ** 2 + x2 ** 2 * u + 1)
    assert _implicit_case("a1_pii").passed


def test_a1_pvdeg_charts_and_points():
    assert unfold_a1_pvdeg("a1_pvdeg").passed
    assert singular_points_check("a1_pvdeg").passed


def test_checks_follow_the_entry_fields():
    jobs = {key: [fn.__name__ for fn, _ in checks(key)] for key in unfolding.cases()}
    assert jobs == {
        "d4": ["unfold_d4", "hat_param_rank_check"],
        "a3": ["_implicit_case"], "a2": ["_implicit_case"], "a1_pii": ["_implicit_case"],
        "a1_pvdeg": ["unfold_a1_pvdeg", "singular_points_check"],
    }
    assert checks("a2") == [(_implicit_case, ("a2",))]


def test_entry_without_checks_is_catalog_error(tmp_path):
    import json
    (tmp_path / "unfoldings.json").write_text(json.dumps({"x": {"tag": "PI"}}))
    catalog.set_catalog_root(tmp_path)
    with pytest.raises(catalog.CatalogError, match="unfoldings.json x"):
        checks("x")


def test_parameter_specialisation_still_zero():
    # specialising the unfolding parameter leaves the (zero) identity zero
    from painleve_cubics import parse_expr, parse_poly
    ring = Ring(["x1", "x2", "x3", "u", "w4"])
    phi = parse_poly("x1*x2*x3 - x1 - x2 - x3 + w4", ring)
    phi = phi.substitute({"w4": ring.one()}).as_poly()
    sub = {"x1": parse_expr("x1 - x3 + 1/u", ring), "x2": parse_expr("u", ring),
           "x3": parse_expr("(x1 + x3 + 1)/u", ring)}
    out = phi.substitute(sub).as_poly()
    target = parse_poly("x1^2 - x3^2 + x2^2 + 1", ring)
    relation = parse_poly("u^2 + x2^2*u + 1", ring)
    assert divide_exact(out - target, relation) is not None


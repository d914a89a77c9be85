"""Confluence limits, route independence, inclusions and graph exports."""

import json

from fractions import Fraction
from operator import mul

import pytest

from painleve_cubics.catalog import SHEAR_NAMES
from painleve_cubics.checks.confluence import (composite_embedding_check, confluent_limit,
                                               embedding_check, limit_chart_coords,
                                               two_route_check)
from painleve_cubics.cli import main
from painleve_cubics.confluence import arrow, arrows, embedding, embeddings
from painleve_cubics.cubics import cubic, cubic_form
from painleve_cubics.ring import LaurentPoly, Ring
from painleve_cubics.shear import SHEAR_RING, chart
from painleve_cubics.verbs import confluence as confluence_verb
from painleve_cubics.verbs.export import confluence_dot, graph_json, inclusion_dot

EXPECTED_ARROWS = {
    ("PVI", "PV"), ("PV", "PVdeg"), ("PV", "PIV"), ("PV", "PIII_D6"),
    ("PIII_D6", "PIII_D7"), ("PVdeg", "PIII_D7"), ("PIII_D7", "PIII_D8"),
    ("PIV", "PII_JM"), ("PIV", "PII_FN"), ("PVdeg", "PII_FN"),
    ("PII_JM", "PI"), ("PII_FN", "PI"), ("PI", "Weierstrass"),
}


def test_arrow_set():
    assert {(a.src, a.dst) for a in arrows()} == EXPECTED_ARROWS


@pytest.mark.parametrize("src,dst", sorted(EXPECTED_ARROWS))
def test_all_limits(src, dst):
    assert confluent_limit(arrow(src, dst)).passed


@pytest.mark.parametrize("src,dst", sorted(EXPECTED_ARROWS))
def test_confluence_command_rescales_the_chart_once(monkeypatch, capsys, src, dst):
    a = arrow(src, dst)
    degrees, _ = limit_chart_coords(a)
    expected = (f"substitution: {a.label}\n"
                f"leading eps-degrees: {', '.join(map(str, degrees))}\n"
                f"{confluent_limit(a).line()}\n")
    calls = []

    def counting(*args):
        calls.append(args)
        return limit_chart_coords(*args)

    monkeypatch.setattr(confluence_verb, "limit_chart_coords", counting)
    assert main(["confluence", src, dst]) == 0
    assert capsys.readouterr().out == expected
    assert len(calls) == 1


def test_first_arrow_leading_degrees():
    degrees, _ = limit_chart_coords(arrow("PVI", "PV"))
    assert degrees == [Fraction(-1), Fraction(-1), Fraction(0)]


def test_half_integer_degrees_on_cusp_removal():
    degrees, _ = limit_chart_coords(arrow("PV", "PVdeg"))
    assert degrees == [Fraction(-1), Fraction(-1), Fraction(0)]
    degrees, _ = limit_chart_coords(arrow("PIII_D7", "PIII_D8"))
    assert Fraction(-1) in degrees


def test_two_routes_agree():
    assert two_route_check().passed


def degree_bound_check(a):
    """min eps-degree of phi(x(eps)) >= a crude product bound from the x-degrees.

    The chart is rescaled by substitution into its own ring with ``eps``, the
    generator standing for epsilon^{1/2}, independently of ``limit_chart_coords``.
    """
    ring = Ring(SHEAR_NAMES + ("eps",))
    shift = {z: ring.monomial({z: 1, "eps": c}) for z, c in a.shift.items()}
    scaled = [x.substitute(shift, ring=ring).as_poly() for x in chart(a.src).x]
    G = {name: g.substitute(shift, ring=ring).as_poly() for name, g in chart(a.src).G.items()}
    omega = [w.substitute(G, ring=ring).as_poly() for w in cubic(a.src).omega]
    phi = cubic_form(scaled, cubic(a.src).eps, omega)
    if phi.is_zero():
        return True
    worst = min(min(x.coefficients("eps")) for x in scaled)
    return min(phi.coefficients("eps")) >= 2 * worst


@pytest.mark.parametrize("src,dst", sorted(EXPECTED_ARROWS))
def test_degree_bound(src, dst):
    assert degree_bound_check(arrow(src, dst))


def initial_cubic(a):
    """The least-weight part of the source phi, each x_i and G_j weighted by the
    least epsilon-degree of its value on the source chart (a zero G by 0)."""
    weights = [a.shift.get(z, 0) for z in SHEAR_NAMES]

    def least_degree(value):
        return min((sum(map(mul, weights, SHEAR_RING.unpack(k))) for k in value.terms), default=0)

    ch = chart(a.src)
    values = {**dict(zip(("x1", "x2", "x3"), ch.x)), **ch.G}
    phi = cubic(a.src).phi
    w = [least_degree(values[n]) for n in phi.ring.names]
    parts = {}
    for k, c in phi.terms.items():
        parts.setdefault(sum(map(mul, w, phi.ring.unpack(k))), {})[k] = c
    return LaurentPoly(phi.ring, parts[min(parts)])


@pytest.mark.parametrize("src,dst", sorted(EXPECTED_ARROWS))
def test_the_target_cubic_is_the_initial_form_of_the_source_cubic(src, dst):
    assert initial_cubic(arrow(src, dst)) == cubic(dst).phi


def test_a_changed_shift_changes_the_initial_cubic():
    a = arrow("PV", "PIII_D6")
    assert initial_cubic(a._replace(shift={**a.shift, "s1": 1})) != cubic("PIII_D6").phi


def test_embedding_pv_in_piv_first_pair():
    emb = embedding("PV", "PIV")
    from painleve_cubics.arcs import lambda_catalog
    amb = lambda_catalog("PIV")
    ring = amb.lambda_ring
    a_img = ring.gen("a") * ring.gen("b") ** 2
    b_img = ring.gen("b") * ring.gen("f")
    assert amb.structure.table_residues({"a": a_img, "b": b_img}, {("a", "b"): 1}) == []


@pytest.mark.parametrize("sub,ambient", [
    ("PV", "PIV"), ("PV", "PIII_tilde"), ("PIV", "PII_JM"), ("PVdeg", "PV"),
    ("PIII_D7", "PIII_tilde"), ("PIII_D8", "PIII_tilde"), ("PII_FN", "PIV"),
])
def test_embeddings(sub, ambient):
    assert embedding_check(embedding(sub, ambient)).passed


def test_fn_embedding_documents_its_mismatches():
    cert = embedding_check(embedding("PII_FN", "PIV"))
    assert cert.passed
    assert "documented mismatches" in cert.detail
    assert "{b,d}" in cert.detail and "{d,f}" in cert.detail


def test_composite_embedding():
    assert composite_embedding_check().passed


def test_dot_export_label():
    dot = confluence_dot()
    assert '"PVI" -> "PV" [label="p3 -= 2 log eps"]' in dot
    assert dot.startswith("digraph")


def test_inclusion_graph_points_into_largest_algebra():
    dot = inclusion_dot()
    assert '"PIV" -> "PII_JM"' in dot
    # no inclusion edge leaves the largest algebra
    assert '"PII_JM" ->' not in dot


def test_graph_json_round_trips():
    payload = json.loads(graph_json())
    assert {(a["src"], a["dst"]) for a in payload["arrows"]} == EXPECTED_ARROWS
    assert json.loads(json.dumps(payload)) == payload
    shifts = {(a["src"], a["dst"]): a["shift"] for a in payload["arrows"]}
    assert shifts[("PVI", "PV")] == {"p3": "-2"}

"""Confluence limits, route independence, inclusions and graph exports."""

import json

from fractions import Fraction

import pytest

from painleve_cubics.catalog import G_NAMES, SHEAR_NAMES, X_NAMES
from painleve_cubics.checks.confluence import (arrow_limit, composite_embedding_check,
                                               confluent_limit, embedding_check,
                                               leading_degrees, two_route_check)
from painleve_cubics.cli import main
from painleve_cubics.confluence import arrow, arrows, embedding, embeddings
from painleve_cubics.cubics import BASE_RING, cubic, cubic_form
from painleve_cubics.ring import Ring
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
def test_confluence_command_takes_the_limit_once(monkeypatch, capsys, src, dst):
    from painleve_cubics import catalog
    from painleve_cubics.ring import LaurentPoly

    a = arrow(src, dst)
    degrees = leading_degrees(arrow_limit(a))
    expected = (f"substitution: {a.label}\n"
                f"leading eps-degrees: {', '.join(map(str, degrees))}\n"
                f"{confluent_limit(a).line()}\n")
    graded, calls = LaurentPoly.graded, []

    def counting(self, weights):
        calls.append(weights is a.shift)
        return graded(self, weights)

    # each of the 3 x and 4 G of the source chart is split by the arrow's shift once
    catalog.clear_caches()
    a = arrow(src, dst)
    monkeypatch.setattr(LaurentPoly, "graded", counting)
    assert main(["confluence", src, dst]) == 0
    assert capsys.readouterr().out == expected
    assert calls.count(True) == 7


def test_an_empty_source_is_no_arrow(capsys):
    # only the limit looks up the primary arrow into a tag, by passing no source
    assert main(["confluence", "", "PV"]) == 2
    assert capsys.readouterr().err == "error: arrows.json arrows has no  -> PV\n"


def test_first_arrow_leading_degrees():
    assert leading_degrees(arrow_limit(arrow("PVI", "PV"))) == [Fraction(-1), Fraction(-1), 0]


def test_half_integer_degrees_on_cusp_removal():
    assert leading_degrees(arrow_limit(arrow("PV", "PVdeg"))) == [-1, -1, 0]
    assert Fraction(-1) in leading_degrees(arrow_limit(arrow("PIII_D7", "PIII_D8")))


def test_a_primary_arrow_limit_is_its_targets_own():
    from painleve_cubics.confluence import limit
    for a in arrows():
        assert (arrow_limit(a) is limit(a.dst)) is not a.secondary


def test_two_routes_agree():
    assert two_route_check().passed


EPS_RING = Ring(SHEAR_NAMES + ("eps",))


def scaled(value, a):
    """``value`` on the source chart of ``a`` with each g_z sent to eps^{c_z} g_z,
    over ``EPS_RING``: eps stands for epsilon^{1/2}, by substitution."""
    shift = {z: EPS_RING.monomial({z: 1, "eps": c}) for z, c in a.shift.items()}
    return value.substitute(shift, ring=EPS_RING).as_poly()


def lowest_eps(value, ring):
    """(least eps exponent, the part of that exponent as a polynomial over ``ring``)
    of ``value``, whose ring is ``ring`` plus a last generator eps; (0, 0) for 0."""
    terms = value.items()
    low = min((e[-1] for e, _ in terms), default=0)
    part = ring.zero()
    for e, c in terms:
        if e[-1] == low:
            part += ring.monomial(dict(zip(ring.names, e[:-1])), c)
    return low, part


def degree_bound_check(a):
    """min eps-degree of phi(x(eps)) >= a crude product bound from the x-degrees."""
    xs = [scaled(x, a) for x in chart(a.src).x]
    G = {name: scaled(g, a) for name, g in chart(a.src).G.items()}
    omega = [w.substitute(G, ring=EPS_RING).as_poly() for w in cubic(a.src).omega]
    phi = cubic_form(xs, cubic(a.src).eps, omega)
    if phi.is_zero():
        return True
    worst = min(lowest_eps(x, SHEAR_RING)[0] for x in xs)
    return lowest_eps(phi, SHEAR_RING)[0] >= 2 * worst


@pytest.mark.parametrize("src,dst", sorted(EXPECTED_ARROWS))
def test_degree_bound(src, dst):
    assert degree_bound_check(arrow(src, dst))


PHI_EPS_RING = Ring(BASE_RING.names + ("eps",))


def epsilon_limit(a):
    """The limit along ``a`` by the epsilon-substitution route, independently of
    ``LaurentPoly.graded``: (x, G, phi) of the target.

    Each chart value is rescaled by substitution and its lowest eps part
    taken.  Then each x_i and G_j of the source phi is sent to
    eps^{its least exponent} times itself (a zero G to itself), and the
    lowest eps part of the result is the target phi; G_j is its leading
    part where that phi names G_j, else 0.
    """
    ch = chart(a.src)
    values = {**dict(zip(X_NAMES, ch.x)), **ch.G}
    lows = {n: lowest_eps(scaled(v, a), SHEAR_RING) for n, v in values.items()}
    weights = {n: PHI_EPS_RING.monomial({n: 1, "eps": low}) for n, (low, _) in lows.items()}
    _, phi = lowest_eps(cubic(a.src).phi.substitute(weights, ring=PHI_EPS_RING).as_poly(),
                        BASE_RING)
    G = {n: lows[n][1] if phi.derivative(n).terms else SHEAR_RING.zero() for n in G_NAMES}
    return tuple(lows[n][1] for n in X_NAMES), G, phi


@pytest.mark.parametrize("src,dst", sorted(EXPECTED_ARROWS))
def test_the_target_cubic_is_the_initial_form_of_the_source_cubic(src, dst):
    assert epsilon_limit(arrow(src, dst))[2] == cubic(dst).phi


@pytest.mark.parametrize("tag", sorted({dst for _, dst in EXPECTED_ARROWS}))
def test_every_derived_chart_and_cubic_is_the_epsilon_limit_of_its_parent(tag):
    a = next(a for a in arrows() if a.dst == tag and not a.secondary)
    x, G, phi = epsilon_limit(a)
    c, ch = cubic(tag), chart(tag)
    xs = tuple(BASE_RING.gen(n) for n in X_NAMES)
    assert cubic_form(xs, c.eps, c.omega) == phi
    assert set(c.eps) <= {0, 1} and all(w.ring == BASE_RING for w in c.omega)
    assert (ch.x, ch.G) == (x, G)


def test_a_changed_shift_changes_the_initial_cubic():
    a = arrow("PV", "PIII_D6")
    assert epsilon_limit(a._replace(shift={**a.shift, "s1": 1}))[2] != cubic("PIII_D6").phi


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

"""Certificates of the shear charts, the flips and the PV -> PIII coordinate change.

A flip is the generalized mutation of ``cluster`` at an edge of theta; it
only ever needs integer powers of e^{s_i}, which is why its images are
registered with granularity 2 on the half-generators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .. import catalog
from ..certificates import Certificate, certify
from ..catalog import SHEAR_NAMES, X_NAMES
from ..cubics import braid, cubic
from ..exprs import parse_expr
from ..ring import GenImage, LaurentPoly
from ..shear import SHEAR_RING, TEXT_RING, chart

# GenImage granularity of a normalization_subst power: an image of e^{z/2} is
# one of g_z, an image of e^{z} one of g_z^2
GRANULARITY = {"half": 1, "full": 2}


def chart_phi_residue(tag: str) -> LaurentPoly:
    """phi(x1,x2,x3) with the chart's parameter values; zero iff the chart lies on the cubic."""
    ch = chart(tag)
    with catalog.entry("charts", "charts", tag):  # a parameter of the cubic that G lacks
        return cubic(tag).phi.substitute({**dict(zip(X_NAMES, ch.x)), **ch.G}, ch.ring).as_poly()


def verify_chart(tag: str) -> Certificate:
    res = chart_phi_residue(tag)
    return certify(f"chart-{tag}", "shear chart satisfies its cubic",
                   f"{tag} shear chart", res.is_zero(), residue=res)


def chart_normalization_check(tag: str) -> Certificate:
    """The constraint drives the parameter definitions to their stated values."""
    ch = chart(tag)
    with catalog.entry("charts", "charts", tag) as entry:
        images = {}
        for gen in catalog.typed(entry, "normalization_subst", {SHEAR_NAMES: dict}, {}):
            field = f"normalization_subst.{gen}"
            power = catalog.typed(entry, f"{field}.power", GRANULARITY.keys())
            text = catalog.typed(entry, f"{field}.image", str)
            images[gen] = GenImage(parse_expr(text, ch.ring), GRANULARITY[power])
        targets = catalog.typed(entry, "normalization_targets", {tuple(ch.G): str}, {})
        values = {g: parse_expr(text, TEXT_RING).substitute(ch.G, ch.ring)
                  for g, text in targets.items()}
        residual = catalog.typed(entry, "normalization_residual", str, "")
    bad = [(g, targets[g]) for g, value in values.items()
           if ch.G[g].substitute(images) != value.substitute(images)]
    detail = ", ".join(f"{g} = {w}" for g, w in targets.items()) or "no constraint needed"
    if residual:
        detail += f"; {residual}"
    return certify(f"chart-normalization-{tag}", "normalisation fixes the parameters",
                   f"{tag} chart normalisation", not bad, detail=detail, residue=bad)


def flip(i: int) -> dict:
    """The generalized mutation (``cluster``) at s_i, then the swap s_j <-> s_k, p_j <-> p_k
    of its neighbours, as images of the shear generators: with X = e^{s} and t = e^{p_i/2}
    X_i, X_i -> 1/(e^{p_i} X_i), and a neighbour with B(s_i, s_j) = b is multiplied by
    P_i(t)^-b if b < 0, divided by P_i(1/t)^b if b > 0 (granularity 2: images of e^{s})."""
    from ..cluster import exchange, exchanges  # only the flips read the exchange matrix
    ring, half, G = SHEAR_RING, Fraction(1, 2), chart("PVI").G
    t = ring.e({f"p{i}": half, f"s{i}": 1})
    row, coefficients = exchanges()[i]
    P = tuple(c.substitute(G) for c in coefficients)
    images = {f"s{i}": GenImage(ring.e({f"p{i}": -half, f"s{i}": -half}))}
    for (j, b), k in zip(row.items(), reversed(row)):  # k is j's other neighbour
        x = ring.e({f"s{j}": 1})
        image = x / exchange(P, t ** -1, ring.one()) ** b if b > 0 else \
            x * exchange(P, t, ring.one()) ** -b
        images[f"s{k}"] = GenImage(image, granularity=2)
        images[f"p{k}"] = GenImage(ring.e({f"p{j}": half}))
    return images


def flip_involution_check(i: int) -> Certificate:
    """f_i composed with itself is the identity on the exponentiated coordinates."""
    ring = SHEAR_RING
    m = flip(i)
    probes = [ring.e({n: 1}) for n in ("s1", "s2", "s3")] + \
             [ring.e({n: Fraction(1, 2)}) for n in ("p1", "p2", "p3")]
    bad = []
    for probe in probes:
        once = probe.substitute(m)
        twice = once.substitute(m)
        if twice != probe:
            bad.append(twice - probe)
    ginf = chart("PVI").G["Ginf"]
    moved = ginf.substitute(m) - ginf  # a flip that moves only Ginf has it as its residue
    return certify(f"flip-involution-{i}", "flip is an involution",
                   f"exchange move f{i}", not bad and moved.is_zero(),
                   detail="also fixes Ginf",
                   residue=bad[0] if bad else moved)


def verify_flip_braid(i: int) -> Certificate:
    """Which coordinate braid does the flip f_i induce on the PVI chart?

    The "-w" convention is ``braid(j, x, omega)``, the "+w" one ``braid(j, x, -omega)``.
    """
    ch = chart("PVI")
    omega = tuple(w.substitute(ch.G, ring=ch.ring).as_poly()
                  for w in cubic("PVI").omega)
    m = flip(i)
    lhs = tuple(x.substitute(m) for x in ch.x)
    minus = tuple(-w for w in omega)
    matches = [(j, conv) for j in (1, 2, 3) for w, conv in ((omega, "-w"), (minus, "+w"))
               if lhs == braid(j, ch.x, w)]
    ok = len(matches) == 1
    detail = f"induces braid {matches[0][0]} ({matches[0][1]} convention)" if matches else "no braid matches"
    return certify(f"flip-braid-{i}", "flip induces a coordinate braid",
                   f"exchange move f{i} on the PVI chart", ok, detail=detail,
                   residue="" if ok else "all candidates left a residue")


def pv_to_piii_change() -> Certificate:
    """Chain-rule brackets of the flipped coordinates are the quoted constants.

    ``lambdas.json pv_to_piii`` gives the flipped coordinates as images in the
    PV shear coordinates and their quoted log brackets; unlisted pairs are 0.
    """
    from ..arcs import lambda_catalog  # only this check needs the arc catalogs
    structure = lambda_catalog("PV").shear_structure
    with catalog.entry("lambdas", "pv_to_piii") as data:
        images = {z: parse_expr(text, structure.ring)
                  for z, text in catalog.typed(data, "images", {str: str}).items()}
        quoted = catalog.pairs(data, "log_brackets", tuple(images))
    table = {(u, v): quoted.get((u, v), -quoted.get((v, u), 0)) for u, v in combinations(images, 2)}
    bad = [(u, v, str(r)[:60]) for u, v, r in structure.table_residues(images, table)]
    detail = "all chain-rule brackets constant; quoted values reproduced"
    return certify("pv-to-piii-change", "flipped coordinates have the stated brackets",
                   "PV flipped-chart coordinate brackets", not bad,
                   detail=detail, residue=bad[:4] if bad else "")

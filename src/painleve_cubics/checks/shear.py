"""Certificates of the shear charts, the flips and the PV -> PIII coordinate change.

Flips act on the coordinates by the exponentiated exchange relations;
they only ever need integer powers of e^{s_i}, which is why their images
are registered with granularity 2 on the half-generators.
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
    """The i-th exchange move as substitution images on the shear generators.

    s-images carry granularity 2 (they are images of e^{s}); the x's only
    involve integer powers of e^{s_j}, so substitution never demands a half
    power of a non-monomial.  An index outside 1, 2, 3 is a KeyError of the
    ``order`` table.
    """
    ring = SHEAR_RING
    order = {1: ("s1", "s2", "s3", "p1", "p2", "p3"),
             2: ("s2", "s3", "s1", "p2", "p3", "p1"),
             3: ("s3", "s1", "s2", "p3", "p1", "p2")}[i]
    si, sj, sk, pi_, pj, pk = order
    return {
        si: GenImage(parse_expr(f"e[-{pi_}/2-{si}/2]", ring)),
        sj: GenImage(parse_expr(f"e[{sk}]*(1+e[{si}])*(1+e[{si}+{pi_}])", ring), granularity=2),
        sk: GenImage(parse_expr(f"e[{sj}]/((1+e[-{si}])*(1+e[-{si}-{pi_}]))", ring), granularity=2),
        pj: GenImage(parse_expr(f"e[{pk}/2]", ring)),
        pk: GenImage(parse_expr(f"e[{pj}/2]", ring)),
    }


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
    ginf_ok = ginf.substitute(m) == ginf
    return certify(f"flip-involution-{i}", "flip is an involution",
                   f"exchange move f{i}", not bad and ginf_ok,
                   detail="also fixes Ginf",
                   residue=bad[0] if bad else "")


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
        if structure is None:
            raise ValueError("the PV arc catalog has no shear-level structure")
        images = {z: parse_expr(text, structure.ring)
                  for z, text in catalog.typed(data, "images", {str: str}).items()}
        quoted = catalog.pairs(data, "log_brackets", tuple(images))
    table = {(u, v): quoted.get((u, v), -quoted.get((v, u), 0)) for u, v in combinations(images, 2)}
    bad = [(u, v, str(r)[:60]) for u, v, r in structure.table_residues(images, table)]
    detail = "all chain-rule brackets constant; quoted values reproduced"
    return certify("pv-to-piii-change", "flipped coordinates have the stated brackets",
                   "PV flipped-chart coordinate brackets", not bad,
                   detail=detail, residue=bad[:4] if bad else "")

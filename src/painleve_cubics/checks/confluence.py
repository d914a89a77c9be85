"""Certificates of the confluence limits and of the reversed algebra inclusions.

An arrow z -> z + c log(epsilon) sends each generator g_z = e^{z/2} to
epsilon^{c/2} g_z, so it only rescales each monomial of a chart coordinate:
the term with exponents e gets epsilon^{d/2}, d = sum_z c_z e_z.  The limit
epsilon -> 0 is the part of least d, taken per coordinate (the three
coordinates may sit at different leading degrees); read off the chart ring's
own keys, with all parameter symbols expanded, it must coincide with the
target chart exactly.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .. import catalog
from ..certificates import Certificate, certify
from ..confluence import Arrow, EmbeddingMap, arrow, embedding
from ..exprs import parse_poly
from ..ring import LaurentPoly, RingError
from ..shear import SHEAR_RING, chart


def limit_chart_coords(a: Arrow) -> tuple:
    """(leading epsilon-degrees, leading parts) of the rescaled source coordinates."""
    weights = [a.shift.get(z, 0) for z in SHEAR_RING.names]
    degrees, leads = [], []
    for i, x in enumerate(chart(a.src).x, start=1):
        parts: dict = {}
        for key, c in x.terms.items():
            parts.setdefault(sum(map(mul, weights, SHEAR_RING.unpack(key))), {})[key] = c
        if not parts:
            with catalog.entry("charts", "charts", a.src):
                raise ValueError(f"x{i} is zero, so it has no leading part")
        d = min(parts)
        degrees.append(Fraction(d, 2))
        leads.append(LaurentPoly(SHEAR_RING, parts[d]))
    return degrees, leads


def confluent_limit(a: Arrow) -> Certificate:
    return limit_certificate(a, *limit_chart_coords(a))


def limit_certificate(a: Arrow, degrees: list, leads: list) -> Certificate:
    """Certify the limit (``degrees``, ``leads``) that ``limit_chart_coords(a)`` returned."""
    bad = [lead - t for lead, t in zip(leads, chart(a.dst).x) if lead != t]
    degs = ",".join(str(d) for d in degrees)
    return certify(f"confluence-{a.src}-{a.dst}", "confluence limit lands on the target chart",
                   f"{a.src} -> {a.dst}", not bad,
                   detail=f"{a.label}; leading degrees {degs}",
                   residue=bad[0] if bad else "")


def two_route_check() -> Certificate:
    """Both routes into the doubly-degenerate third-equation chart agree."""
    via_d6 = arrow("PIII_D6", "PIII_D7")
    via_deg = arrow("PVdeg", "PIII_D7")
    _, leads_a = limit_chart_coords(via_d6)
    _, leads_b = limit_chart_coords(via_deg)
    bad = [p - q for p, q in zip(leads_a, leads_b) if p != q]
    return certify("confluence-two-route", "route independence of the limit",
                   "PV -> PIII_D7 via PIII_D6 vs via PVdeg", not bad,
                   residue=bad[0] if bad else "")


def _parsed_images(emb: EmbeddingMap) -> tuple:
    """(images, carriers) over the ambient arcs, parsed in the entry's context.

    ``images`` holds the arc images (monomials) and the carried parameters;
    ``carriers`` the ambient monomial standing in for each sub parameter.
    """
    from ..arcs import lambda_catalog  # the embeddings alone need the arc catalogs
    with catalog.context(emb.where):
        ring, sub = lambda_catalog(emb.ambient).lambda_ring, lambda_catalog(emb.sub)
        fields = emb._asdict()
        images = {}
        for name, text in catalog.typed(fields, "images", {tuple(sub.entries): str}).items():
            mono = parse_poly(text, ring)
            if not mono.is_monomial():
                raise RingError(f"embedding image of {name} is not a monomial")
            images[name] = mono
        carried, central = (catalog.typed(fields, field, {sub.params: str})
                            for field in ("param_images", "central_images"))
        images.update({p: parse_poly(t, ring) for p, t in carried.items()})
        carriers = {p: parse_poly(t, ring) for p, t in central.items()}
        carriers.update({p: images[p] for p in carried})
    return images, carriers


def embedding_check(emb: EmbeddingMap) -> Certificate:
    """Ambient brackets of the images reproduce the sub-catalog's table.

    A documented mismatch replaces the sub-catalog's coefficient by the
    ambient one; the parameters carried across stay central on the images.
    """
    from ..arcs import lambda_catalog
    images, carriers = _parsed_images(emb)
    own = lambda_catalog(emb.sub).table_between(images)
    stray = [f"{u},{v}" for u, v in emb.expected_mismatches if (u, v) not in own]
    if stray:
        with catalog.context(emb.where):
            raise catalog.UnknownEntry(f"expected_mismatches {stray[0]} names no pair "
                                       f"of the {emb.sub} table between imaged arcs")
    table = {**{k: emb.expected_mismatches.get(k, c) for k, c in own.items()},
             **{(p, name): 0 for p in carriers for name in images}}
    bad = [(u, v, str(r)[:60]) for u, v, r in
           lambda_catalog(emb.ambient).structure.table_residues({**images, **carriers}, table)]
    documented = [f"{{{u},{v}}}: ambient {emb.expected_mismatches[u, v]} vs own {c}"
                  for (u, v), c in own.items()
                  if emb.expected_mismatches.get((u, v), c) != c]
    detail = f"{len(emb.images)} images"
    if documented:
        detail += f"; documented mismatches: {'; '.join(documented)}"
    return certify(f"embedding-{emb.sub}-in-{emb.ambient}",
                   "arc algebra inclusion preserves brackets",
                   f"{emb.sub} inside {emb.ambient}", not bad, detail=detail,
                   residue=bad[:4])


def composite_embedding_check() -> Certificate:
    """The PV arcs pushed through PIV land in PII_JM with the PV brackets."""
    from ..arcs import lambda_catalog
    first = embedding("PV", "PIV")
    first_imgs, _ = _parsed_images(first)
    second_imgs, _ = _parsed_images(embedding("PIV", "PII_JM"))
    jm = lambda_catalog("PII_JM")
    composite = {name: first_imgs[name].substitute(second_imgs, ring=jm.lambda_ring).as_poly()
                 for name in first.images}
    bad = [(u, v, str(r)[:60]) for u, v, r in
           jm.structure.table_residues(composite, lambda_catalog("PV").table_between(composite))]
    return certify("embedding-composite-PV-PIIJM",
                   "embeddings compose along the diagram",
                   "PV inside PII_JM through PIV", not bad, residue=bad[:4])

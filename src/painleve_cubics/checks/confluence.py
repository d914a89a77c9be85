"""Certificates of the confluence limits and of the reversed algebra inclusions.

An arrow z -> z + c log(epsilon) gives the term of a chart coordinate with
exponents e the factor epsilon^{d/2}, d = sum_z c_z e_z; ``confluence.limit``
keeps the part of least d per coordinate, parameters expanded.  A
``confluence-<src>-<dst>`` certificate compares it with the target's x1..x3
texts at the target's G: a primary arrow certifies its target's texts, a
secondary one that its route lands there too.
"""

from __future__ import annotations

from fractions import Fraction

from .. import catalog
from ..catalog import X_NAMES
from ..certificates import Certificate, certify
from ..confluence import Arrow, EmbeddingMap, Limit, arrow, embedding, limit
from ..exprs import parse_expr, parse_poly
from ..ring import RingError
from ..shear import SHEAR_RING, TEXT_RING, chart


def arrow_limit(a: Arrow) -> Limit:
    """``confluence.limit`` along ``a``: a primary arrow's is its target's own."""
    zero = [n for n, x in zip(X_NAMES, chart(a.src).x) if x.is_zero()]
    if zero:
        raise catalog.CatalogError(f"charts.json charts.{a.src}: {zero[0]} is zero, "
                                   "so it has no leading part")
    if not a.secondary and arrow(None, a.dst) is not a:  # the first one's limit would certify it
        raise catalog.CatalogError(f"arrows.json arrows: {a.src} -> {a.dst} is a second "
                                   f"primary arrow into {a.dst}")
    return limit(a.dst, a.src) if a.secondary else limit(a.dst)


def leading_degrees(lim: Limit) -> list:
    """The epsilon-degree d/2 of the leading part of each x_i."""
    return [Fraction(lim.least[n], 2) for n in X_NAMES]


def confluent_limit(a: Arrow) -> Certificate:
    """The limit along ``a`` against the target chart's x1..x3 texts at its G."""
    lim, ch = arrow_limit(a), chart(a.dst)
    with catalog.entry("charts", "charts", a.dst):
        texts = [parse_expr(s, TEXT_RING).substitute(ch.G, SHEAR_RING).as_poly() for s in ch.x_sym]
    bad = [lead - t for lead, t in zip(lim.x, texts) if lead != t]
    degs = ",".join(map(str, leading_degrees(lim)))
    return certify(f"confluence-{a.src}-{a.dst}", "confluence limit lands on the target chart",
                   f"{a.src} -> {a.dst}", not bad,
                   detail=f"{a.label}; leading degrees {degs}",
                   residue=bad[0] if bad else "")


def two_route_check() -> Certificate:
    """Both routes into the doubly-degenerate third-equation chart agree."""
    leads_a = arrow_limit(arrow("PIII_D6", "PIII_D7")).x
    leads_b = arrow_limit(arrow("PVdeg", "PIII_D7")).x
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

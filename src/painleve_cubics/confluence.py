"""Confluence arrows between charts and the reversed algebra inclusions.

An arrow rescales shear coordinates by z -> z + c log(epsilon), with an
integer c for every arrow.  The primary arrows (not ``secondary``) form a
tree rooted at PVI; every chart and cubic but PVI's is the ``limit``
epsilon -> 0 of its parent's along its arrow, so the paper's confluence "in
geometric terms" generates the atlas.  The inclusions of the arc algebras
run opposite to the cusp-removal arrows: each embedding sends the smaller
catalog's arcs to monomials of the bigger one, preserving every bracket
coefficient.

This module reads ``arrows.json`` and imports the Laurent kernel only inside
``limit``, so ``export confluence`` and ``export inclusions`` load none;
``checks.confluence`` certifies the limits and inclusions.
"""

from __future__ import annotations

from typing import NamedTuple

from . import catalog
from .catalog import G_NAMES, SHEAR_NAMES, X_NAMES


class Arrow(NamedTuple):
    src: str
    dst: str
    shift: dict          # shear coordinate -> integer coefficient of log(epsilon)
    secondary: bool

    @property
    def label(self) -> str:
        """The shift as printed, in key order: ``s1 += 2 log eps, p2 -= log eps``."""
        return ", ".join(f"{z} {'-' if c < 0 else '+'}= {'' if abs(c) == 1 else f'{abs(c)} '}log eps"
                         for z, c in self.shift.items())


@catalog.cached
def arrows() -> tuple:
    out = []
    tags = catalog.section("charts", "charts").keys()
    for i, a in enumerate(catalog.section("arrows", "arrows", kind=list)):
        with catalog.context(f"arrows.json arrows[{i}]"):
            out.append(Arrow(src=catalog.typed(a, "src", tags, what="a chart tag"),
                             dst=catalog.typed(a, "dst", tags, what="a chart tag"),
                             shift=catalog.typed(a, "shift", {SHEAR_NAMES: int}),
                             secondary=catalog.typed(a, "secondary", bool, False)))
    return tuple(out)


def arrow(src: str | None, dst: str) -> Arrow:
    """The arrow ``src -> dst``; with ``src`` None, the one primary arrow into ``dst``."""
    for a in arrows():
        if a.dst == dst and (a.src == src or src is None and not a.secondary):
            return a
    raise catalog.UnknownEntry(f"arrows.json arrows has no {'primary arrow' if src is None else src} -> {dst}")


class Limit(NamedTuple):
    least: dict   # x_i, G_j -> the least d of its terms epsilon^{d/2} (0 for a zero G)
    x: tuple      # the least-degree parts of x1..x3
    G: dict
    eps: tuple
    omega: tuple


@catalog.cached
def limit(tag: str, src: str | None = None) -> Limit:
    """The chart and cubic of ``tag`` in the limit along the arrow from ``src``
    (by default the primary arrow into ``tag``): x_i and G_j are the least-degree
    parts of the source's, G_j only where the cubic names it, and the cubic is
    the least-weight part of the source phi, each x_i and G_j weighted by its
    least degree."""
    from .cubics import cubic
    from .shear import chart
    a = arrow(src, tag)
    ch = chart(a.src)
    parts = {n: v.graded(a.shift) for n, v in (*zip(X_NAMES, ch.x), *ch.G.items())}
    least = {n: min(p, default=0) for n, p in parts.items()}  # a zero G weighs 0
    lead = {n: p.get(least[n], ch.ring.zero()) for n, p in parts.items()}
    by_weight = cubic(a.src).phi.graded(least)
    phi = by_weight[min(by_weight)]
    # eps_i: phi has a part of degree 2 in x_i; omega: phi's x-gradient and phi at x = 0
    return Limit(least=least, x=tuple(lead[n] for n in X_NAMES),
                 G={n: ch.ring.zero() if phi.derivative(n).is_zero() else lead[n] for n in G_NAMES},
                 eps=tuple(int(2 in phi.graded({n: 1})) for n in X_NAMES),
                 omega=tuple(p.graded(dict.fromkeys(X_NAMES, 1)).get(0, phi.ring.zero())
                             for p in (*map(phi.derivative, X_NAMES), phi)))


# -- reversed embeddings ------------------------------------------------------


class EmbeddingMap(NamedTuple):
    sub: str
    ambient: str
    images: dict          # sub arc name -> monomial string over the ambient arcs
    # text, type-checked and parsed by ``checks.confluence``
    central_images: dict  # sub central parameter -> ambient monomial standing in
    param_images: dict    # sub parameter carried to an ambient parameter
    expected_mismatches: dict
    where: str            # "arrows.json embeddings[<i>]", for parse errors


@catalog.cached
def embeddings() -> tuple:
    out = []
    tags = catalog.section("lambdas", "catalogs").keys()
    for i, e in enumerate(catalog.section("arrows", "embeddings", kind=list)):
        where = f"arrows.json embeddings[{i}]"
        with catalog.context(where):
            out.append(EmbeddingMap(
                sub=catalog.typed(e, "sub", tags, what="an arc catalog tag"),
                ambient=catalog.typed(e, "ambient", tags, what="an arc catalog tag"),
                images=dict(e["images"]),
                central_images=e.get("central_images", {}),
                param_images=e.get("param_images", {}),
                expected_mismatches=catalog.pairs(e, "expected_mismatches", default={}),
                where=where))
    return tuple(out)


def embedding(sub: str, ambient: str) -> EmbeddingMap:
    for e in embeddings():
        if e.sub == sub and e.ambient == ambient:
            return e
    raise catalog.UnknownEntry(f"arrows.json embeddings has no {sub} in {ambient}")

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

from collections import namedtuple

from . import catalog
from .catalog import G_NAMES, SHEAR_NAMES, X_NAMES


# shift: shear coordinate -> integer coefficient of log(epsilon)
class Arrow(namedtuple("Arrow", "src dst shift secondary")):
    __slots__ = ()

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


# least: x_i, G_j -> the least d of its terms epsilon^{d/2} (0 for a zero G)
# x:     the least-degree parts of x1..x3
# phi:   the cubic over ``cubics.BASE_RING``, checked to be ``cubic_form`` of eps and omega
Limit = namedtuple("Limit", "least x G eps omega phi")


@catalog.cached
def limit(tag: str, src: str | None = None) -> Limit:
    """The chart and cubic of ``tag`` in the limit along the arrow from ``src``
    (by default the primary arrow into ``tag``): x_i and G_j are the least-degree
    parts of the source's, G_j only where the cubic names it, and the cubic is
    the least-weight part of the source phi, each x_i and G_j weighted by its
    least degree.  A cycle of primary arrows above the source, or a part that
    is not of the cubic's form, is a CatalogError naming the arrows."""
    from .cubics import cubic, cubic_form
    from .shear import chart
    a = arrow(src, tag)
    parents = {b.dst: b.src for b in reversed(arrows()) if not b.secondary}  # the first wins
    up = [a.src]
    while up[-1] in parents and up[-1] not in up[:-1]:
        up.append(parents[up[-1]])
    if up[-1] in up[:-1]:  # deriving a.src would never end
        raise catalog.CatalogError("arrows.json arrows: primary arrows form a cycle "
                                   + " -> ".join(reversed(up[up.index(up[-1]):])))
    ch = chart(a.src)
    parts = {n: v.graded(a.shift) for n, v in (*zip(X_NAMES, ch.x), *ch.G.items())}
    least = {n: min(p, default=0) for n, p in parts.items()}  # a zero G weighs 0
    lead = {n: p.get(least[n], ch.ring.zero()) for n, p in parts.items()}
    by_weight = cubic(a.src).phi.graded(least)
    phi = by_weight[min(by_weight)]
    # eps_i: phi has a part of degree 2 in x_i; omega: phi's x-gradient and phi at x = 0
    eps = tuple(int(2 in phi.graded({n: 1})) for n in X_NAMES)
    omega = tuple(p.graded(dict.fromkeys(X_NAMES, 1)).get(0, phi.ring.zero())
                  for p in (*map(phi.derivative, X_NAMES), phi))
    if phi != cubic_form(tuple(map(phi.ring.gen, X_NAMES)), eps, omega):
        raise catalog.CatalogError(f"arrows.json arrows: along {a.src} -> {tag} the least-weight "
                                   f"part of phi is {phi}, not of the form x1 x2 x3 + "
                                   "sum eps_i x_i^2 + sum omega_i x_i + omega_4")
    return Limit(least=least, x=tuple(lead[n] for n in X_NAMES),
                 G={n: ch.ring.zero() if phi.derivative(n).is_zero() else lead[n] for n in G_NAMES},
                 eps=eps, omega=omega, phi=phi)


# -- reversed embeddings ------------------------------------------------------


# images:         sub arc name -> monomial string over the ambient arcs
# text, type-checked and parsed by ``checks.confluence``:
# central_images: sub central parameter -> ambient monomial standing in
# param_images:   sub parameter carried to an ambient parameter
# where:          "arrows.json embeddings[<i>]", for parse errors
EmbeddingMap = namedtuple("EmbeddingMap", "sub ambient images central_images param_images "
                                          "expected_mismatches where")


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

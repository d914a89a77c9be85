"""Confluence arrows between charts and the reversed algebra inclusions.

An arrow rescales shear coordinates by z -> z + c log(epsilon), with an
integer c for every arrow; its limit epsilon -> 0 must land on the target
chart.  The inclusion direction of the arc algebras runs opposite to the
cusp-removal arrows: each embedding sends the smaller catalog's arcs to
monomials of the bigger one, preserving every bracket coefficient.

This module reads ``arrows.json``, checking its tags against the charts and
arc catalogs by name, so it loads no Laurent kernel; the limits and the
inclusions are computed and certified in ``checks.confluence``, and the
graphs are drawn by ``verbs.export``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import catalog
from .catalog import SHEAR_NAMES


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


def arrow(src: str, dst: str) -> Arrow:
    for a in arrows():
        if a.src == src and a.dst == dst:
            return a
    raise catalog.UnknownEntry(f"no confluence arrow {src} -> {dst}")


# -- reversed embeddings ------------------------------------------------------


class EmbeddingMap(NamedTuple):
    sub: str
    ambient: str
    images: dict          # sub arc name -> monomial string over the ambient arcs
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
                central_images=dict(e.get("central_images", {})),
                param_images=dict(e.get("param_images", {})),
                expected_mismatches=catalog.pairs(e, "expected_mismatches", default={}),
                where=where))
    return tuple(out)

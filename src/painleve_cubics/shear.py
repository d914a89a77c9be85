"""Shear-coordinate charts.

A chart parametrises a cubic's coordinates x1, x2, x3 by Laurent
monomial sums in exponentiated shear coordinates; substituting the chart
(and its parameter definitions) into the cubic must give the zero
polynomial, which ``checks.shear`` certifies together with the flips.
"""

from __future__ import annotations

from typing import NamedTuple

from . import catalog
from .catalog import G_NAMES, SHEAR_NAMES, X_NAMES
from .exprs import parse_expr, parse_poly
from .ring import GenImage, Ring

# GenImage granularity of a normalization_subst power: an image of e^{z/2} is
# one of g_z, an image of e^{z} one of g_z^2
GRANULARITY = {"half": 1, "full": 2}


class ShearChart(NamedTuple):
    tag: str
    ring: Ring
    x: tuple            # three LaurentPoly with parameters expanded
    x_sym: tuple        # the catalog strings (parameters symbolic)
    G: dict             # parameter name -> LaurentPoly in shear coordinates
    normalization: str
    norm_images: dict   # the parameter-fixing constraint as substitution images
    norm_targets: dict  # parameter name -> (catalog text, stated value)
    norm_residual: str


def shear_ring() -> Ring:
    return Ring(SHEAR_NAMES)


@catalog.cached
def chart(tag: str) -> ShearChart:
    ring = shear_ring()
    with catalog.entry("charts", "charts", tag) as entry:
        G = {name: parse_poly(s, ring) for name, s in catalog.typed(entry, "G", {G_NAMES: str}).items()}
        images = {}
        for gen, spec in catalog.typed(entry, "normalization_subst", {SHEAR_NAMES: dict}, {}).items():
            power = catalog.typed(entry, f"normalization_subst.{gen}.power", GRANULARITY.keys())
            images[gen] = GenImage(parse_expr(spec["image"], ring), GRANULARITY[power])
        targets = {g: (text, parse_poly(text, ring, symbols=G))
                   for g, text in catalog.typed(entry, "normalization_targets", {tuple(G): str},
                                                {}).items()}
        return ShearChart(tag=tag, ring=ring,
                          x=tuple(parse_poly(entry[n], ring, symbols=G) for n in X_NAMES),
                          x_sym=tuple(entry[n] for n in X_NAMES),
                          G=G, normalization=catalog.typed(entry, "normalization", str),
                          norm_images=images, norm_targets=targets,
                          norm_residual=catalog.typed(entry, "normalization_residual", str, ""))

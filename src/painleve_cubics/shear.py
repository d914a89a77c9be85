"""Shear-coordinate charts.

A chart parametrises a cubic's coordinates x1, x2, x3 by Laurent
monomial sums in exponentiated shear coordinates; substituting the chart
(and its parameter definitions) into the cubic must give the zero
polynomial, which ``checks.shear`` certifies together with the flips.  A
chart text may name the parameters: it is read over ``TEXT_RING`` and the
parameter definitions are substituted into it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import catalog
from .catalog import G_NAMES, SHEAR_NAMES, X_NAMES
from .exprs import parse_expr, parse_poly
from .ring import Ring

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
    # the parameter-fixing constraint as text, parsed by ``checks.shear.chart_normalization_check``
    norm_images: dict   # generator -> (image text, GenImage granularity)
    norm_targets: dict  # parameter name -> stated value, text over TEXT_RING
    norm_residual: str


SHEAR_RING = Ring(SHEAR_NAMES)
# a chart text's ring: the shear coordinates and the parameter names
TEXT_RING = Ring(SHEAR_NAMES + G_NAMES)


@catalog.cached
def chart(tag: str) -> ShearChart:
    ring = SHEAR_RING
    with catalog.entry("charts", "charts", tag) as entry:
        G = {name: parse_poly(s, ring) for name, s in catalog.typed(entry, "G", {G_NAMES: str}).items()}
        images = {}
        for gen in catalog.typed(entry, "normalization_subst", {SHEAR_NAMES: dict}, {}):
            field = f"normalization_subst.{gen}"
            power = catalog.typed(entry, f"{field}.power", GRANULARITY.keys())
            images[gen] = catalog.typed(entry, f"{field}.image", str), GRANULARITY[power]
        x_sym = tuple(catalog.typed(entry, n, str) for n in X_NAMES)
        return ShearChart(tag=tag, ring=ring,
                          x=tuple(parse_expr(s, TEXT_RING).substitute(G, ring).as_poly()
                                  for s in x_sym),
                          x_sym=x_sym,
                          G=G, normalization=catalog.typed(entry, "normalization", str),
                          norm_images=images,
                          norm_targets=catalog.typed(entry, "normalization_targets",
                                                     {tuple(G): str}, {}),
                          norm_residual=catalog.typed(entry, "normalization_residual", str, ""))

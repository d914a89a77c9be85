"""Shear-coordinate charts.

A chart parametrises a cubic's coordinates x1, x2, x3 by Laurent monomial
sums in exponentiated shear coordinates; substituting the chart and its
parameter values G into the cubic must give the zero polynomial, which
``checks.shear`` certifies together with the flips.  Only PVI's entry
states its G: its x1..x3 texts are read over ``TEXT_RING``, the G
substituted.  Every other chart and cubic is the limit of its parent's
(``confluence.limit``); the ``confluence-*`` certificates check its texts.
A derived ``chart-<tag>`` is implied: the arrow scales each term of
phi(x, G) by a power of epsilon, and phi(x, G) = 0 on the parent chart makes
the lowest coefficient, the derived cubic at the derived chart, vanish.
"""

from __future__ import annotations

from collections import namedtuple

from . import catalog
from .catalog import G_NAMES, SHEAR_NAMES, X_NAMES
from .exprs import parse_expr, parse_poly
from .ring import Ring

# GenImage granularity of a normalization_subst power: an image of e^{z/2} is
# one of g_z, an image of e^{z} one of g_z^2
GRANULARITY = {"half": 1, "full": 2}


# x:             three LaurentPoly with parameters expanded
# x_sym:         the catalog strings (parameters symbolic)
# G:             parameter name -> LaurentPoly in shear coordinates
# the parameter-fixing constraint as text, parsed by ``checks.shear.chart_normalization_check``:
# norm_images:   generator -> (image text, GenImage granularity)
# norm_targets:  parameter name -> stated value, text over TEXT_RING
# norm_residual
ShearChart = namedtuple("ShearChart", "tag ring x x_sym G normalization "
                                      "norm_images norm_targets norm_residual")


SHEAR_RING = Ring(SHEAR_NAMES)
# a chart text's ring: the shear coordinates and the parameter names
TEXT_RING = Ring(SHEAR_NAMES + G_NAMES)


@catalog.cached
def chart(tag: str) -> ShearChart:
    ring = SHEAR_RING
    with catalog.entry("charts", "charts", tag) as entry:
        x_sym = tuple(catalog.typed(entry, n, str) for n in X_NAMES)
        if "G" in entry:
            G = {n: parse_poly(s, ring) for n, s in catalog.typed(entry, "G", {G_NAMES: str}).items()}
            x = tuple(parse_expr(s, TEXT_RING).substitute(G, ring).as_poly() for s in x_sym)
        else:
            from .confluence import limit
            x, G = limit(tag)[1:3]  # Limit.x, Limit.G
        images = {}
        for gen in catalog.typed(entry, "normalization_subst", {SHEAR_NAMES: dict}, {}):
            field = f"normalization_subst.{gen}"
            power = catalog.typed(entry, f"{field}.power", GRANULARITY.keys())
            images[gen] = catalog.typed(entry, f"{field}.image", str), GRANULARITY[power]
        return ShearChart(tag=tag, ring=ring, x=x, x_sym=x_sym,
                          G=G, normalization=catalog.typed(entry, "normalization", str),
                          norm_images=images,
                          norm_targets=catalog.typed(entry, "normalization_targets",
                                                     {tuple(G): str}, {}),
                          norm_residual=catalog.typed(entry, "normalization_residual", str, ""))

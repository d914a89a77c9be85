"""Confluence limits between charts and the reversed algebra inclusions.

An arrow rescales shear coordinates by z -> z + c log(epsilon), with an
integer c for every arrow.  The generator ``eps`` is the exponentiated
coordinate of log(epsilon), that is epsilon^{1/2}, so on the generators
the arrow is g_z -> eps^c g_z.  The limit epsilon -> 0 is the part of
least eps-degree d, an epsilon-degree d/2, taken per coordinate (the
three coordinates may sit at different leading degrees); after expanding
all parameter symbols it must coincide with the target chart exactly.

The inclusion direction of the arc algebras runs opposite to the
cusp-removal arrows: each embedding sends the smaller catalog's arcs to
monomials of the bigger one, preserving every bracket coefficient.
Both are certified in ``checks.confluence``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import catalog
from .ring import Ring, RingError
from .shear import SHEAR_NAMES, chart


class Arrow(NamedTuple):
    src: str
    dst: str
    shift: dict          # shear coordinate -> integer coefficient of log(epsilon)
    label: str
    secondary: bool


@catalog.cached
def arrows() -> tuple:
    out = []
    tags = list(catalog.load("charts")["charts"])
    for i, a in enumerate(catalog.load("arrows")["arrows"]):
        with catalog.context(f"arrows.json arrows[{i}]"):
            for end in ("src", "dst"):
                if a[end] not in tags:
                    raise ValueError(f"{end} is {a[end]!r}, not a chart tag")
            for z, c in a["shift"].items():
                if z not in SHEAR_NAMES:
                    raise ValueError(f"shift names {z!r}, not a shear coordinate "
                                     f"({', '.join(SHEAR_NAMES)})")
                if type(c) is not int:
                    raise ValueError(f"shift coefficient {c!r} of {z} is not an integer")
            out.append(Arrow(src=a["src"], dst=a["dst"], shift=dict(a["shift"]), label=a["label"],
                             secondary=catalog.typed(a, "secondary", bool, False)))
    return tuple(out)


def arrow(src: str, dst: str) -> Arrow:
    for a in arrows():
        if a.src == src and a.dst == dst:
            return a
    raise catalog.UnknownEntry(f"no confluence arrow {src} -> {dst}")


def eps_ring() -> Ring:
    """The shear ring with ``eps``, the generator that stands for epsilon^{1/2}."""
    return Ring(SHEAR_NAMES + ("eps",))


def scaled_chart_coords(a: Arrow) -> list:
    """Source chart coordinates after the arrow's rescaling g_z -> eps^c g_z."""
    ring = eps_ring()
    images = {z: ring.monomial({z: 1, "eps": c}) for z, c in a.shift.items()}
    return [x.cast(ring).substitute(images, ring=ring).as_poly()
            for x in chart(a.src).x]


def limit_chart_coords(a: Arrow) -> tuple:
    """(leading epsilon-degrees, leading parts) of the rescaled source coordinates."""
    degrees, leads = [], []
    for i, scaled in enumerate(scaled_chart_coords(a), start=1):
        parts = scaled.coefficients("eps")
        if not parts:
            raise RingError(f"charts.json charts.{a.src}: x{i} is zero, so it has no leading part")
        d = min(parts)
        degrees.append(Fraction(d, 2))
        leads.append(parts[d])
    return degrees, leads


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
    for i, e in enumerate(catalog.load("arrows")["embeddings"]):
        where = f"arrows.json embeddings[{i}]"
        with catalog.context(where):
            out.append(EmbeddingMap(
                sub=e["sub"], ambient=e["ambient"], images=dict(e["images"]),
                central_images=dict(e.get("central_images", {})),
                param_images=dict(e.get("param_images", {})),
                expected_mismatches=catalog.pairs(e.get("expected_mismatches", {})),
                where=where))
    return tuple(out)


# -- graph exports ------------------------------------------------------------


def confluence_dot() -> str:
    lines = ["digraph confluence {", "  rankdir=LR;"]
    for a in arrows():
        style = ' style=dashed' if a.secondary else ""
        lines.append(f'  "{a.src}" -> "{a.dst}" [label="{a.label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def inclusion_dot() -> str:
    lines = ["digraph inclusions {", "  rankdir=LR;",
             '  label="arc algebra inclusions (arrows point into the bigger algebra)";']
    for e in embeddings():
        lines.append(f'  "{e.sub}" -> "{e.ambient}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json() -> str:
    payload = {
        "arrows": [{"src": a.src, "dst": a.dst,
                    "shift": {k: str(v) for k, v in a.shift.items()},
                    "label": a.label, "secondary": a.secondary}
                   for a in arrows()],
        "inclusions": [{"sub": e.sub, "ambient": e.ambient, "images": e.images}
                       for e in embeddings()],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"

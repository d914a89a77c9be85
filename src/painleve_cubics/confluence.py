"""Confluence limits between charts and the reversed algebra inclusions.

An arrow rescales shear coordinates by z -> z + c log(eps); on the
exponentiated generators this is g_z -> eps^{c/2} g_z, with half-integer
eps-weights tracked exactly.  The limit eps -> 0 is the minimal
eps-degree part, taken per coordinate (the three coordinates may sit at
different leading degrees); after expanding all parameter symbols it
must coincide with the target chart exactly.

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
from .ring import Ring
from .shear import SHEAR_NAMES, chart


class Arrow(NamedTuple):
    src: str
    dst: str
    shift: dict          # coordinate -> coefficient of log(eps)
    label: str
    secondary: bool


@catalog.cached
def arrows() -> tuple:
    out = []
    for i, a in enumerate(catalog.load("arrows")["arrows"]):
        with catalog.context(f"arrows.json arrows[{i}]"):
            out.append(Arrow(src=a["src"], dst=a["dst"],
                             shift={k: Fraction(v) for k, v in a["shift"].items()},
                             label=a["label"], secondary=bool(a.get("secondary", False))))
    return tuple(out)


def arrow(src: str, dst: str) -> Arrow:
    for a in arrows():
        if a.src == src and a.dst == dst:
            return a
    raise catalog.UnknownEntry(f"no confluence arrow {src} -> {dst}")


def eps_ring() -> Ring:
    return Ring(SHEAR_NAMES + ("eps",))


def scaled_chart_coords(a: Arrow) -> list:
    """Source chart coordinates after the arrow's eps-rescaling."""
    ring = eps_ring()
    images = {}
    for z, c in a.shift.items():
        images[z] = ring.monomial({z: 1, "eps": Fraction(c, 2)})
    return [x.cast(ring).substitute(images, ring=ring).as_poly()
            for x in chart(a.src).x]


def limit_chart_coords(a: Arrow) -> tuple:
    """(leading degrees, leading parts) of the rescaled source coordinates."""
    degrees, leads = [], []
    for scaled in scaled_chart_coords(a):
        d, lead = scaled.epsilon_leading()
        degrees.append(d)
        leads.append(lead)
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

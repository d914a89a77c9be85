"""The monodromy cubic catalog.

Every cubic has the shape

    phi = x1 x2 x3 + e1 x1^2 + e2 x2^2 + e3 x3^2
          + w1 x1 + w2 x2 + w3 x3 + w4

with e_i in {0,1} and the w_i polynomials in the parameter symbols
G1, G2, G3, Ginf (see data/cubics.json).  The classical reference rows
are carried as derived views together with their documented relation to
the canonical parametrisation.
"""

from __future__ import annotations

from typing import NamedTuple

from . import catalog
from .catalog import G_NAMES, X_NAMES
from .exprs import parse_expr, parse_poly
from .ring import LaurentPoly, RationalExpr, Ring, as_expr

# how a reference row relates to the canonical cubic (``checks.cubics.table1_check``)
TABLE1_STATUSES = ("exact", "exact_rational", "exact_after_sign_flip", "documented_mismatch")


def tags() -> list:
    with catalog.context("cubics.json"):
        return list(catalog.typed(catalog.load("cubics"), "tags",
                                  [catalog.section("cubics", "cubics").keys()]))


class CubicSurface(NamedTuple):
    tag: str
    eps: tuple
    ring: Ring                    # x1,x2,x3,G1,G2,G3,Ginf
    omega: tuple                  # four LaurentPoly in the G symbols
    phi: LaurentPoly              # canonical cubic over `ring`
    phi_specialized: LaurentPoly  # redundant parameters fixed
    table1: str                   # reference row as printed (w-symbols)
    table1_expr: RationalExpr     # reference row with parameters tied in
    table1_status: str
    table1_residue: str
    table1_residue_expr: RationalExpr  # the documented mismatch, parsed; else zero
    table1_flip: tuple
    theta_doc: str

    def phi_display(self) -> str:
        return _display(self.phi_specialized)


def _display(poly: LaurentPoly) -> str:
    return poly.to_text().replace(" * ", " ").replace("*", " ")


def base_ring() -> Ring:
    return Ring(X_NAMES + G_NAMES)


@catalog.cached
def cubic(tag: str) -> CubicSurface:
    ring = base_ring()
    with catalog.entry("cubics", "cubics", tag) as entry:
        omega = tuple(parse_poly(s, ring) for s in entry["omega"])
        eps = catalog.typed(entry, "eps", [(0, 1)])
        if len(eps) != 3:
            raise ValueError(f"eps is {entry['eps']!r}, not three of 0 and 1")
        phi = cubic_form(tuple(ring.gen(n) for n in X_NAMES), eps, omega)
        spec = {name: parse_poly(s, ring) for name, s in entry["specialization"].items()}
        phi_spec = phi.substitute(spec).as_poly() if spec else phi
        symbols = {w: parse_expr(s, ring) for w, s in entry["table1_params"].items()}
        status = catalog.typed(entry, "table1_status", TABLE1_STATUSES)
        return CubicSurface(
            tag=tag,
            eps=eps,
            ring=ring,
            omega=omega,
            phi=phi,
            phi_specialized=phi_spec,
            table1=catalog.typed(entry, "table1", str),
            table1_expr=parse_expr(entry["table1"], ring, symbols=symbols),
            table1_status=status,
            table1_residue=catalog.typed(entry, "table1_residue", str, ""),
            table1_residue_expr=(parse_expr(entry["table1_residue"], ring)
                                 if status == "documented_mismatch" else as_expr(ring.zero())),
            table1_flip=catalog.typed(entry, "table1_flip", [ring.names], ()),
            theta_doc=catalog.typed(entry, "theta_doc", str, ""),
        )


def cubic_form(x: tuple, eps: tuple, omega: tuple):
    """x1 x2 x3 + sum eps_i x_i^2 + sum w_i x_i + w4 at the values ``x``.

    The values and coefficients may be LaurentPoly, RationalExpr or
    scalars; the result has the type their arithmetic gives.
    """
    x1, x2, x3 = x
    phi = x1 * x2 * x3 + omega[0] * x1 + omega[1] * x2 + omega[2] * x3 + omega[3]
    for e, xi in zip(eps, x):
        if e:
            phi = phi + xi * xi
    return phi


def pulled_back(tag: str, xs, params: dict, ring: Ring):
    """The cubic of ``tag`` at the values ``xs``, each G of ``params`` replaced
    by its value over ``ring``; an unmapped G must be a generator of ``ring``."""
    c = cubic(tag)
    return cubic_form(tuple(xs), c.eps, [w.substitute(params, ring=ring) for w in c.omega])


def omega_from_G(eps: tuple, ring: Ring | None = None) -> tuple:
    """The generic parameter-to-coefficient map for a given eps triple."""
    ring = ring or base_ring()
    G1, G2, G3, Gf = (ring.gen(n) for n in G_NAMES)
    e1, e2, e3 = eps
    w1 = -G1 * Gf - e1 * G2 * G3
    w2 = -G2 * Gf - e2 * G1 * G3
    w3 = -G3 * Gf - e3 * G1 * G2
    w4 = (e2 * e3 * G1 ** 2 + e1 * e3 * G2 ** 2 + e1 * e2 * G3 ** 2
          + Gf ** 2 + G1 * G2 * G3 * Gf - ring.const(4 * e1 * e2 * e3))
    return (w1, w2, w3, w4)

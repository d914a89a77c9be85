"""The monodromy cubic catalog.

Every cubic has the shape

    phi = x1 x2 x3 + e1 x1^2 + e2 x2^2 + e3 x3^2
          + w1 x1 + w2 x2 + w3 x3 + w4

with e_i in {0,1} and the w_i polynomials in the parameter symbols G1, G2,
G3, Ginf; only PVI's entry in data/cubics.json states them, every other cubic
is the limit of its parent's (``confluence.limit``).  The classical reference
rows are catalog text with their documented relation to the canonical
parametrisation; ``checks.cubics.table1_check`` parses them.
"""

from __future__ import annotations

from collections import namedtuple

from . import catalog
from .catalog import G_NAMES, X_NAMES
from .exprs import parse_poly
from .ring import Ring

# the ring of the catalog's cubics: coordinates and the parameter symbols
BASE_RING = Ring(X_NAMES + G_NAMES)
# the free-coefficient ring of the cubic: coordinates and w1..w4 as generators
W_NAMES = ("w1", "w2", "w3", "w4")
W_RING = Ring(X_NAMES + W_NAMES)

# how a reference row relates to the canonical cubic (``checks.cubics.table1_check``)
TABLE1_STATUSES = ("exact", "exact_rational", "exact_after_sign_flip", "documented_mismatch")


def tags() -> list:
    with catalog.context("cubics.json"):
        return list(catalog.typed(catalog.load("cubics"), "tags",
                                  [catalog.section("cubics", "cubics").keys()]))


# ring:            x1,x2,x3,G1,G2,G3,Ginf
# omega:           four LaurentPoly in the G symbols
# phi:             canonical cubic over `ring`
# phi_specialized: redundant parameters fixed
# the reference row as text, parsed by ``checks.cubics.table1_check``:
# table1:          as printed, in w-symbols
# table1_params:   w-symbol -> catalog text in the G symbols
# table1_status, table1_residue, table1_flip, theta_doc
class CubicSurface(namedtuple("CubicSurface", "tag eps ring omega phi phi_specialized table1 "
                              "table1_params table1_status table1_residue table1_flip theta_doc")):
    __slots__ = ()

    def phi_display(self) -> str:
        return self.phi_specialized.to_text().replace(" * ", " ").replace("*", " ")


@catalog.cached
def cubic(tag: str) -> CubicSurface:
    ring = BASE_RING
    with catalog.entry("cubics", "cubics", tag) as entry:
        if "omega" in entry:
            omega = tuple(parse_poly(s, ring) for s in catalog.typed(entry, "omega", [str]))
            eps = catalog.typed(entry, "eps", [(0, 1)])
            if len(eps) != 3:
                raise ValueError(f"eps is {entry['eps']!r}, not three of 0 and 1")
            phi = cubic_form(tuple(ring.gen(n) for n in X_NAMES), eps, omega)
        else:
            from .confluence import limit
            eps, omega, phi = limit(tag)[3:]  # Limit.eps, Limit.omega, Limit.phi
        spec = {name: parse_poly(s, ring) for name, s in
                catalog.typed(entry, "specialization", {G_NAMES: str}).items()}
        phi_spec = phi.substitute(spec).as_poly() if spec else phi
        return CubicSurface(
            tag=tag,
            eps=eps,
            ring=ring,
            omega=omega,
            phi=phi,
            phi_specialized=phi_spec,
            table1=catalog.typed(entry, "table1", str),
            table1_params=catalog.typed(entry, "table1_params", {W_NAMES: str}),
            table1_status=catalog.typed(entry, "table1_status", TABLE1_STATUSES),
            table1_residue=catalog.typed(entry, "table1_residue", str, ""),
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


def braid(i: int, x: tuple, w: tuple) -> tuple:
    """Braid generator i at the values ``x``: x_i -> -x_i - x_j x_k - w_i, x_j <-> x_k.

    The Vieta involution in x_i of ``cubic_form`` with eps_i = 1 and
    coefficients ``w``, then the transposition; with w_j <-> w_k as well it
    preserves the cubic.  An index outside 1, 2, 3 leaves three values for
    (j, k), a ValueError.
    """
    j, k = (t for t in (0, 1, 2) if t != i - 1)
    out = list(x)
    out[i - 1], out[j], out[k] = -x[i - 1] - x[j] * x[k] - w[i - 1], x[k], x[j]
    return tuple(out)

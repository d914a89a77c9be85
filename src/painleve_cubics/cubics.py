"""The monodromy cubic catalog and the standalone surface identities.

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
from .certificates import Certificate, certify
from .exprs import parse_expr, parse_poly
from .ring import LaurentPoly, RationalExpr, Ring, as_expr

G_NAMES = ("G1", "G2", "G3", "Ginf")
X_NAMES = ("x1", "x2", "x3")


def tags() -> list:
    return list(catalog.load("cubics")["tags"])


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
    table1_residue_expr: "RationalExpr | None"  # the documented mismatch, parsed
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
    data = catalog.load("cubics")["cubics"]
    if tag not in data:
        raise catalog.UnknownEntry(f"unknown cubic tag {tag!r} (have {sorted(data)})")
    entry = data[tag]
    ring = base_ring()
    with catalog.context(f"cubics.json cubics.{tag}"):
        omega = tuple(parse_poly(s, ring) for s in entry["omega"])
        eps = tuple(int(v) for v in entry["eps"])
        phi = cubic_form(tuple(ring.gen(n) for n in X_NAMES), eps, omega)
        spec = {name: parse_poly(s, ring) for name, s in entry["specialization"].items()}
        phi_spec = phi.substitute(spec).as_poly() if spec else phi
        symbols = {w: parse_expr(s, ring) for w, s in entry["table1_params"].items()}
        return CubicSurface(
            tag=tag,
            eps=eps,
            ring=ring,
            omega=omega,
            phi=phi,
            phi_specialized=phi_spec,
            table1=entry["table1"],
            table1_expr=parse_expr(entry["table1"], ring, symbols=symbols),
            table1_status=entry["table1_status"],
            table1_residue=entry.get("table1_residue", ""),
            table1_residue_expr=(parse_expr(entry["table1_residue"], ring)
                                 if entry["table1_status"] == "documented_mismatch" else None),
            table1_flip=tuple(entry.get("table1_flip", ())),
            theta_doc=entry.get("theta_doc", ""),
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


def nambu_context(tag: str) -> NambuContext:
    from .poisson import NambuContext

    return NambuContext(cubic(tag).phi, X_NAMES)


# -- certificates -----------------------------------------------------------


def volume_form_check(tag: str) -> Certificate:
    """d(phi)/d(x_k) = x_i x_j + 2 eps_k x_k + w_k for cyclic (i,j,k)."""
    c = cubic(tag)
    ring = c.ring
    xs = [ring.gen(n) for n in X_NAMES]
    bad = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        expect = xs[i] * xs[j] + 2 * c.eps[k] * xs[k] + c.omega[k]
        got = c.phi.derivative(X_NAMES[k])
        if got != expect:
            bad.append(got - expect)
    return certify(f"volform-{tag}", "partial derivatives of the cubic",
                   f"{tag} gradient coefficients", not bad,
                   residue=bad[0] if bad else "")


def nambu_casimir_check(tag: str) -> Certificate:
    """phi is a Casimir and the induced bracket satisfies Jacobi."""
    c = cubic(tag)
    ctx = nambu_context(tag)
    xs = [c.ring.gen(n) for n in X_NAMES]
    residues = [ctx.bracket(c.phi, x) for x in xs]
    jac = ctx.jacobiator(*xs)
    ok = all(r.is_zero() for r in residues) and jac.is_zero()
    bad = next((r for r in residues if not r.is_zero()), jac)
    return certify(f"nambu-{tag}", "cubic Casimir and Jacobi identity",
                   f"{tag} surface bracket", ok, residue=bad)


def table1_check(tag: str) -> Certificate:
    """The reference row relates to the canonical cubic as documented."""
    c = cubic(tag)
    ring = c.ring
    specialized = as_expr(c.phi_specialized)
    status = c.table1_status
    if status in ("exact", "exact_rational"):
        ok = c.table1_expr == specialized
        return certify(f"table1-{tag}", "reference polynomial match",
                       f"{tag} reference row", ok, detail=status,
                       residue=(c.table1_expr - specialized))
    if status == "exact_after_sign_flip":
        flip = {name: -ring.gen(name) for name in c.table1_flip}
        flipped = c.table1_expr.substitute(flip)
        ok = flipped == specialized
        return certify(f"table1-{tag}", "reference polynomial match",
                       f"{tag} reference row", ok,
                       detail=f"after {','.join(c.table1_flip)} sign flip",
                       residue=(flipped - specialized))
    # documented mismatch: the residue itself is the frozen expected outcome
    expected = c.table1_residue_expr
    actual = c.table1_expr - specialized
    ok = actual == expected
    return certify(f"table1-{tag}", "reference polynomial relation",
                   f"{tag} reference row", ok,
                   detail=f"documented mismatch, residue {c.table1_residue}",
                   residue=(actual - expected))


def torus_param_check() -> Certificate:
    """x = (-u-1/u, -v-1/v, -uv-1/uv) annihilates the w4 = -4 four-hole cubic."""
    ring = Ring(["u", "v"])
    u, v = ring.gen("u"), ring.gen("v")
    xs = (-u - u ** -1, -v - v ** -1, -u * v - (u * v) ** -1)
    phi = cubic_form(xs, (1, 1, 1), (0, 0, 0, -4))
    inv = {"u": u ** -1, "v": v ** -1}
    inv_fixed = all(x.substitute(inv).as_poly() == x for x in xs)
    return certify("torus-parametrization", "two-torus cover of the PVI cubic",
                   "PVI torus parametrization", phi.is_zero() and inv_fixed,
                   detail="involution u,v -> 1/u,1/v fixes x", residue=phi)


def fn_jm_diffeo_check() -> Certificate:
    """The stated map carries the PII_FN cubic onto the classical form.

    The identity closes exactly with w1 = -1/s^2 and overall factor 1/s
    (recorded); points with x1 x2 = 0 are outside the map's domain.
    """
    ring = Ring(["x1", "x2", "x3", "sp"])
    x1, x2, x3, s = (ring.gen(n) for n in ring.names)
    images = {
        "x1": as_expr(-s * x1),
        "x2": as_expr(x2 * s ** -1),
        "x3": (s ** 2 * x1 ** 2 - (1 + x1 * x2) * x3 * s ** -1) / (x1 * x2),
    }
    fn = cubic_form((x1, x2, x3), (1, 0, 0), (-(s ** -2), -1, 0, 1))
    lhs = fn.substitute(images)
    classical = cubic_form((x1, x2, x3), (0, 0, 0), (1, -1, 1, s))
    return certify("fn-classical-diffeo", "diffeomorphism onto the classical form",
                   "PII_FN coordinate change", lhs == as_expr(classical) * (s ** -1),
                   detail="holds with w1 = -1/s^2, factor 1/s",
                   residue=(lhs * s - classical))


def singular_point_check(tag: str, gvalues: dict, point: tuple) -> bool:
    """Is ``point`` a singular point of the specialised cubic at ``gvalues``?"""
    c = cubic(tag)
    ring = c.ring
    phi = c.phi_specialized.substitute(
        {name: ring.const(v) for name, v in gvalues.items()}).as_poly()
    subs = {name: ring.const(v) for name, v in zip(X_NAMES, point)}
    vals = [phi] + [phi.derivative(n) for n in X_NAMES]
    results = [p.substitute(subs).as_poly().constant_value() for p in vals]
    return all(v == 0 for v in results)

"""Certificates of the cubic catalog and the standalone surface identities."""

from __future__ import annotations

from .. import catalog
from ..catalog import G_NAMES, X_NAMES
from ..certificates import Certificate, certify
from ..cubics import W_NAMES, cubic, cubic_form
from ..exprs import parse_expr
from ..ring import Ring

# a reference row's ring: the cubic's generators and the w-symbols, so a row may name a G
ROW_RING = Ring(X_NAMES + G_NAMES + W_NAMES)


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
    from ..poisson import NambuContext, jacobiator

    c = cubic(tag)
    ctx = NambuContext(c.phi)
    xs = [c.ring.gen(n) for n in X_NAMES]
    residues = [ctx.bracket(c.phi, x) for x in xs]
    jac = jacobiator(ctx.bracket, *xs)
    ok = all(r.is_zero() for r in residues) and jac.is_zero()
    bad = next((r for r in residues if not r.is_zero()), jac)
    return certify(f"nambu-{tag}", "cubic Casimir and Jacobi identity",
                   f"{tag} surface bracket", ok, residue=bad)


def table1_check(tag: str) -> Certificate:
    """The reference row, sign-flipped where documented, differs from the
    canonical cubic by its documented residue (zero unless a mismatch is documented)."""
    c = cubic(tag)
    with catalog.entry("cubics", "cubics", tag) as entry:
        texts = catalog.typed(entry, "table1_params", {W_NAMES: str})
        mismatch = c.table1_status == "documented_mismatch"  # must state its residue
        residue = catalog.typed(entry, "table1_residue", str, None if mismatch else "")
        flip = catalog.typed(entry, "table1_flip", [c.ring.names], ())
        params = {w: parse_expr(s, c.ring) for w, s in texts.items()}
        row = parse_expr(c.table1, ROW_RING)
        for w in W_NAMES:
            if w not in params and any(set(p.graded({w: 1})) - {0} for p in (row.num, row.den)):
                raise ValueError(f"table1 names {w}, which table1_params does not define")
        row = row.substitute(params, c.ring)
        if mismatch:
            row = row - parse_expr(residue, c.ring)
    if c.table1_status == "exact_after_sign_flip":
        row = row.substitute({name: -c.ring.gen(name) for name in flip})
    res = row - c.phi_specialized
    detail = {"exact_after_sign_flip": f"after {','.join(flip)} sign flip",
              "documented_mismatch": f"documented mismatch, residue {residue}",
              }.get(c.table1_status, c.table1_status)
    title = "relation" if mismatch else "match"
    return certify(f"table1-{tag}", f"reference polynomial {title}", f"{tag} reference row",
                   res.is_zero(), detail=detail, residue=res)


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
        "x1": -s * x1,
        "x2": x2 * s ** -1,
        "x3": (s ** 2 * x1 ** 2 - (1 + x1 * x2) * x3 * s ** -1) / (x1 * x2),
    }
    fn = cubic_form((x1, x2, x3), (1, 0, 0), (-(s ** -2), -1, 0, 1))
    lhs = fn.substitute(images)
    classical = cubic_form((x1, x2, x3), (0, 0, 0), (1, -1, 1, s))
    return certify("fn-classical-diffeo", "diffeomorphism onto the classical form",
                   "PII_FN coordinate change", lhs == classical * s ** -1,
                   detail="holds with w1 = -1/s^2, factor 1/s",
                   residue=(lhs * s - classical))

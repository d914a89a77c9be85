"""Change-of-variable certificates onto singularity normal forms.

The corank-3 case decomposes exactly: after the stated shifts and the
plane rotation, the cubic splits as a Morse term x3^2, an explicit
quartic square (the local-equivalence tail, recorded), and the shifted
normal form with the catalogued unfolding parameters.  The implicit
cases adjoin an auxiliary variable with its clearing-denominators
relation; reduction modulo the relation (monic in u up to an invertible
monomial, so division is exact) must leave zero.
"""

from __future__ import annotations

from fractions import Fraction

from .. import catalog, linalg
from ..catalog import X_NAMES
from ..certificates import Certificate, certify
from ..cubics import cubic, cubic_form
from ..exprs import parse_expr, parse_poly
from ..ring import LaurentPoly, RationalExpr, Ring, RingError, as_expr
from ..unfolding import W_RING, cases, hat_param_table
from .cubics import singular_point_check


def reduce_mod_u(poly: LaurentPoly, relation: LaurentPoly, uname: str) -> tuple:
    """Remainder and quotient of ``poly`` modulo ``relation`` as polynomials in u.

    The relation's leading u-coefficient must be an invertible monomial, so
    each elimination step is exact; poly may carry negative u-powers, which
    are cleared first (the clearing power is returned).
    """
    ring = poly.ring
    clear = -min(0, min(poly.coefficients(uname), default=0))
    work = poly * ring.gen(uname, clear) if clear else poly
    rel = relation.coefficients(uname)
    rel_deg = max(rel)
    lead_mono = rel[rel_deg]
    if not lead_mono.is_monomial():
        raise RingError("relation leading u-coefficient is not a monomial")
    quotient = ring.zero()
    while not work.is_zero():
        parts = work.coefficients(uname)
        deg = max(parts)
        if deg < rel_deg:
            break
        factor = parts[deg] * lead_mono ** -1 * ring.gen(uname, deg - rel_deg)
        work = work - factor * relation
        quotient = quotient + factor
    return work, quotient, clear


def _substituted(phi: LaurentPoly, sub: dict, ring: Ring) -> RationalExpr:
    images = {name: parse_expr(text, ring) for name, text in sub.items()}
    return phi.substitute(images, ring=ring)


def hat_param_rank_check(key: str) -> Certificate:
    """The affine-linear part of w -> w-hat has full rank 4 and the stated value at w = 0."""
    table = hat_param_table(key)
    with catalog.entry("unfoldings", key) as entry:
        stated = [Fraction(v) for v in entry["hat_params_at_zero"]]
    rows = []
    for name in ("wh1", "wh2", "wh3", "wh4"):
        poly = table[name]
        terms = dict(poly.items())
        rows.append([terms.get(W_RING.gen(w).monomial_exps(), Fraction(0))
                     for w in ("w1", "w2", "w3", "w4")])
    rank = linalg.rank(rows)
    zero = {w: W_RING.const(0) for w in ("w1", "w2", "w3", "w4")}
    at_zero = [table[name].substitute(zero).as_poly().constant_value()
               for name in ("wh1", "wh2", "wh3", "wh4")]
    ok = rank == 4 and at_zero == stated
    return certify(f"unfold-{key}-params", "unfolding parameters are independent",
                   "corank-3 parameter map", ok,
                   detail=f"linear rank {rank}; value at 0 is ({', '.join(map(str, stated))})")


def unfold_d4(key: str) -> Certificate:
    """Exact decomposition: shifted cubic = Morse term + quartic tail + normal form."""
    ring = W_RING
    with catalog.entry("unfoldings", key) as entry:
        shift = entry["pre_shift"]
        shifted = cubic_form(tuple(ring.gen(n) + shift for n in X_NAMES), (1, 1, 1),
                             tuple(ring.gen(n) for n in ("w1", "w2", "w3", "w4")))
        result = _substituted(shifted, entry["diffeo"], ring).as_poly()
        tail = parse_poly(entry["tail"], ring)
        post_shift = parse_expr(entry["post_shift_x1"], ring)
        target = parse_poly(entry["target"], ring, symbols=hat_param_table(key))
    # split off the x3 directions: nothing mixed, quadratic coefficient constant
    parts = result.coefficients("x3")
    pure = set(parts) <= {0, 2}
    kappa = parts.get(2, ring.zero())
    plane = parts.get(0, ring.zero())
    moved = (plane + tail).substitute({"x1": post_shift}).as_poly()
    res = moved - target
    ok = pure and kappa.is_one() and res.is_zero()
    return certify(f"unfold-{key}", "corank-3 normal form",
                   "four-hole cubic unfolding", ok,
                   detail="Morse coefficient 1; tail -(x1^2 - x2^2/4)^2/4 recorded",
                   residue=res)


def _implicit_case(key: str) -> Certificate:
    with catalog.entry("unfoldings", key) as entry:
        params = tuple(entry["param_generators"])
        ring = Ring(("x1", "x2", "x3", "u") + params)
        if "cubic" in entry:
            phi = parse_poly(entry["cubic"], ring)
        else:
            omega = tuple(parse_poly(entry["omega"][w], ring) for w in ("w1", "w2", "w3", "w4"))
            phi = cubic_form(tuple(ring.gen(n) for n in X_NAMES), cubic(entry["tag"]).eps, omega)
        out = _substituted(phi, entry["substitution"], ring).as_poly()
        target = parse_poly(entry["target"], ring)
        clear_pow = catalog.typed(entry, "relation_clear_power", int)
        lhs = parse_expr(entry["relation_lhs"], ring)
        rhs = parse_expr(entry["relation_rhs"], ring)
        relation = ((lhs - rhs) * ring.gen("u", clear_pow)).as_poly()
        diff = out - target
        remainder, quotient, clear = reduce_mod_u(diff, relation, "u")
        udeg = max(relation.coefficients("u"))
        title = f"corank-1 normal form ({entry['singularity']})"
        anchor = f"{entry['tag']} unfolding"
    reproduced = diff * ring.gen("u", clear) == quotient * relation + remainder
    return certify(f"unfold-{key}", title, anchor, remainder.is_zero() and reproduced,
                   detail=f"reduced modulo the degree-{udeg} relation in u",
                   residue=remainder)


def unfold_a1_pvdeg(key: str) -> Certificate:
    """Both explicit charts map onto the Morse normal form, as rational identities."""
    bad = []
    with catalog.entry("unfoldings", key) as entry:
        ring = Ring(("x1", "x2", "x3") + tuple(entry["param_generators"]))
        phi = parse_poly(entry["cubic"], ring)
        for i, chart in enumerate(entry["charts"], start=1):
            out = _substituted(phi, chart["substitution"], ring)
            target = parse_poly(chart["target"], ring)
            if out != as_expr(target):
                bad.append((i, out - as_expr(target)))
    return certify(f"unfold-{key.replace('_', '-')}", "corank-1 normal form (two charts)",
                   "degenerate fifth-equation unfolding", not bad,
                   detail="both chart maps verified by cross-multiplication",
                   residue=bad[:1])


def singular_points_check(key: str) -> Certificate:
    """The stated singular points of the most degenerate fibre, plus a regular probe."""
    with catalog.entry("unfoldings", key) as entry:
        tag, fibre = entry["tag"], entry["singular_fibre"]
        gvals = {f"G{i}": -catalog.typed(fibre["params"], f"w{i}", int) for i in (1, 2)}
        ok = all(singular_point_check(tag, gvals, tuple(pt))
                 for pt in fibre["singular_points"])
        probe_singular = singular_point_check(tag, gvals, tuple(fibre["regular_probe"]))
    return certify(f"singular-points-{tag.lower()}", "singular points of the degenerate fibre",
                   f"{tag} singular fibre", ok and not probe_singular,
                   detail=f"points {fibre['singular_points']} singular; probe {fibre['regular_probe']} is not")


def checks(key: str) -> list:
    """(fn, args) of every certificate that the fields of entry ``key`` call for."""
    entry = cases()[key]
    jobs = [(fn, (key,)) for field, fn in (
        ("diffeo", unfold_d4),
        ("hat_params", hat_param_rank_check),
        ("relation_lhs", _implicit_case),
        ("charts", unfold_a1_pvdeg),
        ("singular_fibre", singular_points_check)) if field in entry]
    if not jobs:
        raise catalog.CatalogError(f"unfoldings.json {key}: no certificate follows from its fields")
    return jobs

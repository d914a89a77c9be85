"""Change-of-variable certificates onto singularity normal forms.

The corank-3 case decomposes exactly: after the stated shifts and the
plane rotation, the cubic splits as a Morse term x3^2, an explicit
quartic square (the local-equivalence tail, recorded), and the shifted
normal form with the catalogued unfolding parameters.  The implicit
cases adjoin an auxiliary variable u with a defining relation; the
substituted cubic minus the target must be a multiple of the relation in
the Laurent ring, which the kernel's exact division decides.
"""

from __future__ import annotations

from fractions import Fraction

from .. import catalog, linalg
from ..catalog import X_NAMES
from ..certificates import Certificate, certify
from ..cubics import W_NAMES, W_RING, cubic, cubic_form
from ..division import divide_exact
from ..exprs import parse_expr, parse_poly
from ..ring import LaurentPoly, Ring
from ..unfolding import cases, hat_param_table


def _substituted(phi: LaurentPoly, entry: dict, field: str, ring: Ring):
    """``phi`` under the substitution ``entry[field]``, {generator: expression text}."""
    images = {name: parse_expr(text, ring)
              for name, text in catalog.typed(entry, field, {str: str}).items()}
    return phi.substitute(images, ring=ring)


def hat_param_rank_check(key: str) -> Certificate:
    """The affine-linear part of w -> w-hat has full rank 4 and the stated value at w = 0."""
    table = hat_param_table(key)
    with catalog.entry("unfoldings", key) as entry:
        stated = catalog.typed(entry, "hat_params_at_zero", [int])
    rows = []
    for name in ("wh1", "wh2", "wh3", "wh4"):
        poly = table[name]
        terms = dict(poly.items())
        rows.append([terms.get(W_RING.gen(w).monomial_exps(), Fraction(0)) for w in W_NAMES])
    rank = linalg.rank(rows)
    zero = {w: W_RING.const(0) for w in W_NAMES}
    at_zero = tuple(table[name].substitute(zero).as_poly().constant_value()
                    for name in ("wh1", "wh2", "wh3", "wh4"))
    ok = rank == 4 and at_zero == stated
    return certify(f"unfold-{key}-params", "unfolding parameters are independent",
                   "corank-3 parameter map", ok,
                   detail=f"linear rank {rank}; value at 0 is ({', '.join(map(str, stated))})")


def unfold_d4(key: str) -> Certificate:
    """Exact decomposition: shifted cubic = Morse term + quartic tail + normal form."""
    ring = W_RING
    with catalog.entry("unfoldings", key) as entry:
        shift = catalog.typed(entry, "pre_shift", int)
        shifted = cubic_form(tuple(ring.gen(n) + shift for n in X_NAMES), (1, 1, 1),
                             tuple(ring.gen(n) for n in W_NAMES))
        result = _substituted(shifted, entry, "diffeo", ring).as_poly()
        tail = parse_poly(catalog.typed(entry, "tail", str), ring)
        post_shift = parse_expr(catalog.typed(entry, "post_shift_x1", str), ring)
        hats = hat_param_table(key)  # the target is read over the ring and the hat names
        target = parse_poly(catalog.typed(entry, "target", str),
                            Ring(ring.names + tuple(hats))).substitute(hats, ring)
    # split off the x3 directions: nothing mixed, the quadratic part exactly x3^2
    parts = result.graded({"x3": 1})
    pure = set(parts) <= {0, 2}
    morse = parts.get(2) == ring.gen("x3") ** 2
    plane = parts.get(0, ring.zero())
    moved = (plane + tail).substitute({"x1": post_shift}).as_poly()
    res = moved - target
    ok = pure and morse and res.is_zero()
    return certify(f"unfold-{key}", "corank-3 normal form",
                   "four-hole cubic unfolding", ok,
                   detail="Morse coefficient 1; tail -(x1^2 - x2^2/4)^2/4 recorded",
                   residue=res)


def _implicit_case(key: str) -> Certificate:
    with catalog.entry("unfoldings", key) as entry:
        tag = catalog.typed(entry, "tag", str)
        ring = Ring(("x1", "x2", "x3", "u") + catalog.typed(entry, "param_generators", [str]))
        if "cubic" in entry:
            phi = parse_poly(catalog.typed(entry, "cubic", str), ring)
        else:
            phi = cubic(tag).phi_specialized.substitute({}, ring)
        out = _substituted(phi, entry, "substitution", ring).as_poly()
        diff = out - parse_poly(catalog.typed(entry, "target", str), ring)
        relation = (parse_expr(catalog.typed(entry, "relation_lhs", str), ring)
                    - parse_expr(catalog.typed(entry, "relation_rhs", str), ring)).as_poly()
        udegs = relation.graded({"u": 1})
        title = f"corank-1 normal form ({catalog.typed(entry, 'singularity', str)})"
    return certify(f"unfold-{key}", title, f"{tag} unfolding",
                   divide_exact(diff, relation) is not None,
                   detail=f"reduced modulo the degree-{max(udegs) - min(udegs)} relation in u",
                   residue=diff)


def unfold_a1_pvdeg(key: str) -> Certificate:
    """Both explicit charts map onto the Morse normal form, as rational identities."""
    bad = []
    with catalog.entry("unfoldings", key) as entry:
        ring = Ring(("x1", "x2", "x3") + catalog.typed(entry, "param_generators", [str]))
        phi = parse_poly(catalog.typed(entry, "cubic", str), ring)
        for i in range(len(catalog.typed(entry, "charts", [dict]))):
            out = _substituted(phi, entry, f"charts.{i}.substitution", ring)
            target = parse_poly(catalog.typed(entry, f"charts.{i}.target", str), ring)
            if out != target:
                bad.append((i + 1, out - target))
    return certify(f"unfold-{key.replace('_', '-')}", "corank-1 normal form (two charts)",
                   "degenerate fifth-equation unfolding", not bad,
                   detail="both chart maps verified by cross-multiplication",
                   residue=bad[:1])


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


def singular_points_check(key: str) -> Certificate:
    """The stated singular points of the most degenerate fibre, plus a regular probe."""
    with catalog.entry("unfoldings", key) as entry:
        tag, fibre = catalog.typed(entry, "tag", str), catalog.typed(entry, "singular_fibre", dict)
        gvals = {f"G{i}": -catalog.typed(fibre["params"], f"w{i}", int) for i in (1, 2)}
        points = catalog.typed(entry, "singular_fibre.singular_points", [[int]])
        ok = all(singular_point_check(tag, gvals, pt) for pt in points)
        probe_singular = singular_point_check(
            tag, gvals, catalog.typed(entry, "singular_fibre.regular_probe", [int]))
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

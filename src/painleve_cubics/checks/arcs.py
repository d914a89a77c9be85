"""Certificates of the arc catalogs and the surface signatures.

Arc lengths are traces of words in the right/left/edge matrices, closed
by the cusp matrix K.  The purely combinatorial cusp bracket gives the
bracket coefficients from arrival-order indices alone.
"""

from __future__ import annotations

from fractions import Fraction

from .. import catalog
from ..arcs import lambda_catalog, signature
from ..catalog import X_NAMES
from ..certificates import Certificate, certify
from ..cubics import G_NAMES, cubic
from ..exprs import parse_expr, parse_poly
from ..poisson import casimir_kernel, is_casimir_product, solve_structure
from ..ring import LaurentPoly, Ring

Matrix = tuple  # 2x2 nested tuples of LaurentPoly


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    return tuple(
        tuple(A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2))
        for i in range(2)
    )


def mat_det(A: Matrix) -> LaurentPoly:
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def right_matrix(ring: Ring) -> Matrix:
    one, zero = ring.one(), ring.zero()
    return ((one, one), (-one, zero))


def left_matrix(ring: Ring) -> Matrix:
    one, zero = ring.one(), ring.zero()
    return ((zero, one), (-one, one))


def edge_matrix(ring: Ring, z: str) -> Matrix:
    zero = ring.zero()
    return ((zero, -ring.e({z: Fraction(1, 2)})), (ring.e({z: Fraction(-1, 2)}), zero))


def cusp_matrix(ring: Ring) -> Matrix:
    one, zero = ring.one(), ring.zero()
    return ((zero, zero), (-one, zero))


def word_matrix(ring: Ring, letters: list, close_with_K: bool = False) -> Matrix:
    """Product of word letters: 'R', 'L', or 'X(name)'; optionally right-closed by K."""
    out = None
    for letter in letters:
        if letter == "R":
            m = right_matrix(ring)
        elif letter == "L":
            m = left_matrix(ring)
        elif letter.startswith("X(") and letter.endswith(")"):
            m = edge_matrix(ring, letter[2:-1])
        else:
            raise ValueError(f"bad word letter {letter!r}")
        out = m if out is None else mat_mul(out, m)
    if out is None:
        raise ValueError("empty word")
    if close_with_K:
        out = mat_mul(out, cusp_matrix(ring))
    return out


def word_trace(ring: Ring, letters: list, close_with_K: bool = False) -> LaurentPoly:
    m = word_matrix(ring, letters, close_with_K)
    return m[0][0] + m[1][1]


def arc_trace_check() -> Certificate:
    """The worked arc of ``lambdas.json arc_trace``: its K-closed word trace is the catalog arc."""
    with catalog.entry("lambdas", "arc_trace") as data:
        cat = lambda_catalog(catalog.typed(data, "catalog", str))
        arc = catalog.typed(data, "arc", cat.entries.keys())
        word = catalog.typed(data, "word", [str])
        trace = word_trace(cat.shear_ring, word, close_with_K=True)
        unimodular = mat_det(word_matrix(cat.shear_ring, word)).is_one()
    target = cat.entries[arc]
    return certify(f"arc-trace-{arc}", "worked arc trace equals the catalog monomial",
                   f"{cat.tag} arc {arc} word trace", trace == target and unimodular,
                   detail=f"trace = {arc} exactly (discrepancy factor 1); det of the open word is 1",
                   residue=trace - target)


def _sign(k: int) -> int:
    return (k > 0) - (k < 0)


def comb_bracket(u: tuple, v: tuple) -> Fraction:
    """Coefficient c with {g_u, g_v} = c g_u g_v from cusp arrival indices.

    Each arc is ((hole, order), (hole, order)); sign(0) = 0 covers the
    self-index case.
    """
    (s, i), (t, j) = u
    (p, r), (q, l) = v
    total = (_sign(i - r) * (s == p) + _sign(j - r) * (t == p)
             + _sign(i - l) * (s == q) + _sign(j - l) * (t == q))
    return Fraction(total, 4)


def comb_bracket_check() -> Certificate:
    """Antisymmetry plus the worked index pairs against the PV table."""
    cat = lambda_catalog("PV")
    idx, pair = cat.cusp_indices, cat.structure.pair
    checks = []
    for (uname, u) in idx.items():
        for (vname, v) in idx.items():
            got = comb_bracket(u, v)
            checks += [got == pair(uname, vname), got == -comb_bracket(v, u)]
    # arcs sharing no cusp commute
    checks.append(comb_bracket((("1", 1), ("1", 2)), (("2", 1), ("3", 1))) == 0)
    return certify("comb-bracket", "combinatorial cusp bracket",
                   "cusp-index bracket formula", all(checks),
                   detail="antisymmetric; reproduces the indexed PV pairs")


def verify_lambda_table(tag: str) -> Certificate:
    """The shear-level structure reproduces every bracket coefficient of the table."""
    cat = lambda_catalog(tag)
    if cat.shear_structure is None:
        with catalog.entry("lambdas", "catalogs", tag):
            raise ValueError(f"{tag} has no shear-level structure to verify against")
    images = {**cat.entries, **{z: cat.shear_ring.gen(z) for z in cat.central_shear}}
    table = {**cat.table, **{(z, name): 0 for z in cat.central_shear for name in cat.entries}}
    bad = cat.shear_structure.table_residues(images, table)
    monomial = all(m.is_monomial() for m in cat.entries.values())
    form = "monomial entries" if monomial else "sum entries"
    return certify(f"lambda-table-{tag}", "bracket table from the shear structure",
                   f"{tag} arc bracket table", not bad, detail=form,
                   residue=[(u, v, str(r)[:60]) for u, v, r in bad[:4]])


def solve_structure_check(tag: str) -> Certificate:
    """Re-derive the frozen shear structure from the table by a fresh exact solve."""
    cat = lambda_catalog(tag)
    with catalog.entry("lambdas", "catalogs", tag):
        res = solve_structure(cat.shear_ring, cat.entries, cat.table, central=cat.central_shear)
        if res.violations:
            detail, bad = "no solution: the table is inconsistent", res.violations
        elif res.free_pairs:
            detail, bad = f"no unique solution: {len(res.free_pairs)} pairs left free", res.free_pairs
        else:
            got = res.structure.log_bracket
            frozen, stated = ([(u, v, f"solved {got(u, v)}, catalog {c}")
                               for (u, v), c in quoted.items() if got(u, v) != c]
                              for quoted in (cat.solved_log_brackets, cat.stated_log_brackets))
            detail = f"unique solution; {'differs from' if frozen else 'matches'} frozen matrix"
            if cat.stated_log_brackets:
                detail += f"; quoted coordinate brackets {'not ' if stated else ''}reproduced"
            bad = frozen + stated
    return certify(f"lambda-solve-{tag}", "shear structure recovered from the table",
                   f"{tag} arc bracket table", not bad, detail=detail, residue=bad)


def casimir_check(tag: str) -> Certificate:
    """Kernel of the exponent pairing on the catalog monomials: Casimirs and rank.

    The kernel is taken on the actual shear exponent lattice, through the
    monomial shear-level structure (loop parameters riding on their central
    perimeter); the subset catalogs inherit their parent's.  Casimirs on a
    catalog without such a structure are a catalog error.
    """
    cat = lambda_catalog(tag)
    ring = cat.lambda_ring
    with catalog.entry("lambdas", "catalogs", tag):
        if cat.shear_structure is None or not all(m.is_monomial() for m in cat.entries.values()):
            raise ValueError(f"{tag} has Casimirs but no monomial shear-level structure")
        expected = [dict(zip(ring.names, parse_poly(text, ring).monomial_exps()))
                    for text in cat.casimirs]
    structure, mono = cat.shear_structure, dict(cat.entries)
    for p, z in zip(cat.params, cat.central_shear):
        mono[p] = cat.shear_ring.gen(z)
    report = casimir_kernel(structure, mono)
    members = all(is_casimir_product(structure, vec, mono) for vec in expected)
    ok = (report.rank == cat.leaf_dim
          and len(report.kernel) == len(expected) and members)
    # the kernel elements themselves must bracket-commute with every input
    recheck = all(is_casimir_product(structure, vec, mono) for vec in report.kernel)
    return certify(f"casimirs-{tag}", "Casimirs and symplectic leaf dimension",
                   f"{tag} arc algebra kernel", ok and recheck,
                   detail=f"rank {report.rank}, kernel {report.kernel_names()}",
                   residue=report.kernel_names())


def _coordinates(entry: dict, ring: Ring) -> tuple:
    """The ``xexprs`` x1..x3 and the ``identifications`` {G name: value} of
    ``entry``, parsed over ``ring``; identifications need x-expressions."""
    if "xexprs" not in entry and "identifications" in entry:
        raise ValueError(f"identifications is {entry['identifications']!r}, "
                         f"not allowed without xexprs")
    texts = catalog.typed(entry, "xexprs", {X_NAMES: str})
    return ({n: parse_expr(texts[n], ring) for n in X_NAMES},
            {g: parse_expr(s, ring)
             for g, s in catalog.typed(entry, "identifications", {G_NAMES: str}, {}).items()})


def commutant_check(tag: str) -> Certificate:
    """The x-expressions commute with the frozen arcs and satisfy the cubic."""
    cat = lambda_catalog(tag)
    ring = cat.lambda_ring
    with catalog.entry("lambdas", "catalogs", tag) as entry:
        xs, identified = _coordinates(entry, ring)
    images = {**xs, **{f: ring.gen(f) for f in cat.frozen}}
    table = {(x, f): 0 for x in xs for f in cat.frozen}
    bad = [(x, f, "bracket does not vanish")
           for x, f, _ in cat.structure.table_residues(images, table)]
    # a G the ring lacks is zero
    params = {**{g: ring.zero() for g in G_NAMES if g not in ring.index}, **identified}
    phi = cubic(cat.tag).phi.substitute({**xs, **params}, ring)
    if not phi.is_zero():
        bad.append(("phi", cat.tag, "cubic not satisfied"))
    return certify(f"commutant-{tag}", "x-expressions: frozen commutation and cubic",
                   f"{tag} coordinates in arc lengths", not bad,
                   detail=f"frozen: {','.join(cat.frozen)}",
                   residue=bad[:4])


def pvi_from_pv_check() -> Certificate:
    """The four-hole coordinates recovered in the PV arc algebra satisfy their cubic."""
    ring = lambda_catalog("PV").lambda_ring
    with catalog.entry("lambdas", "pvi_from_pv") as data:
        xs, ident = _coordinates(data, ring)
        phi = cubic("PVI").phi.substitute({**xs, **ident}, ring)
        # specialisation e = 1 collapses the extra parameter to the value 2
        deg = ident["G3"].substitute({"e": ring.one()}).as_poly()
    ok = phi.is_zero() and deg.constant_value() == 2
    return certify("pvi-from-pv", "four-hole cubic inside the PV arc algebra",
                   "PVI coordinates from PV arcs", ok,
                   detail="identifications G3 = e + 1/e, Ginf = d + 1/d",
                   residue=phi)


def lamination_count_check(tag: str) -> Certificate:
    """Moduli dimension = number of arcs + number of loop parameters."""
    cat = lambda_catalog(tag)
    with catalog.entry("lambdas", "catalogs", tag) as entry:
        name = catalog.typed(entry, "signature", str, tag)
    sig = signature(name)
    count = len(cat.entries) + len(cat.params)
    ok = sig.dimension() == count
    return certify(f"lamination-count-{tag}", "arc count matches moduli dimension",
                   f"{tag} lamination", ok,
                   detail=f"dim {sig.dimension()} = {len(cat.entries)} arcs + {len(cat.params)} loops")


def signature_check(tag: str) -> Certificate:
    sig = signature(tag)
    with catalog.entry("signatures", "signatures", tag) as entry:
        ok = sig.dimension() == catalog.typed(entry, "dim", int)
    katz = ",".join(str(k) for k in sig.katz())
    detail = (f"s={len(sig.holes)} n={sum(sig.holes)} dim={sig.dimension()} "
              f"katz={katz} stokes={','.join(map(str, sig.row))} "
              f"poles={','.join(map(str, sig.pole_orders()))}")
    if sig.phantom_hole:
        detail += " (row keeps a phantom uncusped point)"
    return certify(f"signature-{tag}", "irregularity arithmetic",
                   f"{tag} surface signature", ok, detail=detail)

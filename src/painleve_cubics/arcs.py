"""Arc machinery: SL2 words, lambda catalogs, cusp brackets, signatures.

Arc lengths are traces of words in the right/left/edge matrices, closed
by the cusp matrix K; the catalogs record each surface's arcs as
monomials (or short sums) in exponentiated shear coordinates, the
pairwise bracket table, and the frozen arcs cutting out the monodromy
manifold.  The purely combinatorial cusp bracket gives the same
coefficients from arrival-order indices alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import catalog
from .certificates import Certificate, certify
from .cubics import G_NAMES, X_NAMES, pulled_back
from .exprs import parse_expr, parse_poly
from .poisson import PoissonStructure, casimir_kernel, is_casimir_product, solve_structure
from .ring import LaurentPoly, Ring

Matrix = tuple  # 2x2 nested tuples of LaurentPoly


# -- SL2 words ---------------------------------------------------------------


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
    with catalog.context("lambdas.json arc_trace"):
        data = catalog.load("lambdas")["arc_trace"]
        cat, arc, word = lambda_catalog(data["catalog"]), data["arc"], data["word"]
        if arc not in cat.entries:
            raise catalog.UnknownEntry(f"no arc {arc!r} in lambda catalog {cat.tag!r}")
        trace = word_trace(cat.shear_ring, word, close_with_K=True)
        unimodular = mat_det(word_matrix(cat.shear_ring, word)).is_one()
    target = cat.entries[arc]
    return certify(f"arc-trace-{arc}", "worked arc trace equals the catalog monomial",
                   f"{cat.tag} arc {arc} word trace", trace == target and unimodular,
                   detail=f"trace = {arc} exactly (discrepancy factor 1); det of the open word is 1",
                   residue=trace - target)


# -- combinatorial cusp bracket ----------------------------------------------


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
    idx, table = cat.cusp_indices, cat.table
    checks = []
    for (uname, u) in idx.items():
        for (vname, v) in idx.items():
            got = comb_bracket(u, v)
            if uname == vname:
                checks.append(got == 0)
            else:
                want = table.get((uname, vname))
                want = -table[(vname, uname)] if want is None else want
                checks.append(got == want)
            checks.append(got == -comb_bracket(v, u))
    # arcs sharing no cusp commute
    checks.append(comb_bracket((("1", 1), ("1", 2)), (("2", 1), ("3", 1))) == 0)
    return certify("comb-bracket", "combinatorial cusp bracket",
                   "cusp-index bracket formula", all(checks),
                   detail="antisymmetric; reproduces the indexed PV pairs")


# -- lambda catalogs -----------------------------------------------------------


class LambdaCatalog(NamedTuple):
    tag: str
    shear_ring: Ring
    entries: dict                 # name -> LaurentPoly in shear coordinates
    table: dict                   # (u, v) -> Fraction
    params: tuple                 # central parameter symbols (loop lengths)
    lambda_ring: Ring             # arcs + params as direct generators
    structure: PoissonStructure   # log-canonical structure on lambda_ring
    shear_structure: "PoissonStructure | None"
    frozen: tuple
    identifications: dict         # cubic parameter symbol -> RationalExpr over lambda_ring
    casimirs: tuple               # the catalog strings, e.g. "a*b^-1*h^2"
    casimir_exps: tuple           # the same as {name: exponent} maps
    leaf_dim: int
    xexprs: dict                  # x-name -> RationalExpr over lambda_ring
    stated_log_brackets: dict
    solved_log_brackets: dict
    central_shear: tuple          # shear generators carrying the loop parameters
    cusp_indices: dict            # arc -> ((hole, order), (hole, order))
    signature: str                # signatures.json entry of the surface

    def table_between(self, names) -> dict:
        """The entries of the bracket table between two of ``names``."""
        return {(u, v): c for (u, v), c in self.table.items() if u in names and v in names}


@catalog.cached
def lambda_catalog(tag: str) -> LambdaCatalog:
    data = catalog.load("lambdas")["catalogs"]
    if tag not in data:
        raise catalog.UnknownEntry(f"no lambda catalog for {tag!r} (have {sorted(data)})")
    entry = data[tag]
    with catalog.context(f"lambdas.json catalogs.{tag}"):
        stated = catalog.pairs(entry.get("stated_log_brackets", {}))
        solved = catalog.pairs(entry.get("solved_log_brackets", {}))
        if "subset_of" in entry:
            parent = lambda_catalog(entry["subset_of"])
            names = tuple(entry["subset"])
            sring, shear_structure, params = parent.shear_ring, parent.shear_structure, ()
            entries = {n: parent.entries[n] for n in names}
            table = parent.table_between(names)
            frozen = tuple(n for n in parent.frozen if n in names)
        else:
            sring = Ring(tuple(entry["shear_generators"]))
            entries = {n: parse_poly(s, sring) for n, s in entry["entries"].items()}
            table = catalog.pairs(entry["table"] if "table" in entry else data[entry["table_ref"]]["table"])
            params = tuple(entry.get("params", ()))
            frozen = tuple(entry.get("frozen", ()))
            log = solved or stated
            shear_structure = PoissonStructure.from_log_brackets(sring, log) if log else None
        lring = Ring(tuple(entries) + params)
        return LambdaCatalog(
            tag=tag, shear_ring=sring, entries=entries, table=table, params=params,
            lambda_ring=lring, structure=PoissonStructure(lring, table),
            shear_structure=shear_structure, frozen=frozen,
            identifications={g: parse_expr(s, lring)
                             for g, s in entry.get("identifications", {}).items()},
            casimirs=tuple(entry.get("casimirs", ())),
            casimir_exps=tuple(dict(zip(lring.names, parse_poly(text, lring).monomial_exps()))
                               for text in entry.get("casimirs", ())),
            leaf_dim=int(entry.get("leaf_dim", 0)),
            xexprs={n: parse_expr(s, lring) for n, s in entry.get("xexprs", {}).items()},
            stated_log_brackets=stated, solved_log_brackets=solved,
            central_shear=tuple(entry.get("central_shear", ())),
            cusp_indices={name: tuple(tuple(pair) for pair in pairs)
                          for name, pairs in entry.get("cusp_indices", {}).items()},
            signature=entry.get("signature", tag))


def verify_lambda_table(tag: str) -> Certificate:
    """The shear-level structure reproduces every bracket coefficient of the table."""
    cat = lambda_catalog(tag)
    if cat.shear_structure is None:
        with catalog.context(f"lambdas.json catalogs.{tag}"):
            raise catalog.UnknownEntry(f"{tag} has no shear-level structure to verify against")
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
    res = solve_structure(cat.shear_ring, cat.entries, cat.table, central=cat.central_shear)
    bad = res.violations or res.free_pairs
    if not bad:
        got = res.structure.log_bracket
        quoted = [*cat.solved_log_brackets.items(), *cat.stated_log_brackets.items()]
        bad = [(u, v, f"solved {got(u, v)}, catalog {c}") for (u, v), c in quoted if got(u, v) != c]
    detail = "unique solution; matches frozen matrix"
    if cat.stated_log_brackets:
        detail += "; quoted coordinate brackets reproduced"
    return certify(f"lambda-solve-{tag}", "shear structure recovered from the table",
                   f"{tag} arc bracket table", not bad, detail=detail, residue=bad)


def casimir_check(tag: str) -> Certificate:
    """Kernel of the exponent pairing on the catalog monomials: Casimirs and rank.

    For catalogs with a shear-level structure the kernel is taken on the
    actual shear exponent lattice (loop parameters riding on their central
    perimeter); the subset catalogs use the arc pairing directly.
    """
    cat = lambda_catalog(tag)
    if cat.shear_structure is not None and all(m.is_monomial() for m in cat.entries.values()):
        structure = cat.shear_structure
        mono = dict(cat.entries)
        for p, z in zip(cat.params, cat.central_shear):
            mono[p] = cat.shear_ring.gen(z)
    else:
        structure = cat.structure
        mono = {n: cat.lambda_ring.gen(n) for n in cat.lambda_ring.names}
    report = casimir_kernel(structure, mono)
    expected = cat.casimir_exps
    members = all(is_casimir_product(structure, vec, mono) for vec in expected)
    ok = (report.rank == cat.leaf_dim
          and len(report.kernel) == len(expected) and members)
    # the kernel elements themselves must bracket-commute with every input
    recheck = all(is_casimir_product(structure, vec, mono) for vec in report.kernel)
    return certify(f"casimirs-{tag}", "Casimirs and symplectic leaf dimension",
                   f"{tag} arc algebra kernel", ok and recheck,
                   detail=f"rank {report.rank}, kernel {report.kernel_names()}",
                   residue=report.kernel_names())


def commutant_check(tag: str) -> Certificate:
    """The x-expressions commute with the frozen arcs and satisfy the cubic."""
    cat = lambda_catalog(tag)
    ring = cat.lambda_ring
    images = {**cat.xexprs, **{f: ring.gen(f) for f in cat.frozen}}
    table = {(x, f): 0 for x in cat.xexprs for f in cat.frozen}
    bad = [(x, f, "bracket does not vanish")
           for x, f, _ in cat.structure.table_residues(images, table)]
    # a G the ring lacks is zero
    params = {**{g: ring.zero() for g in G_NAMES if g not in ring.index}, **cat.identifications}
    phi = pulled_back(cat.tag, [cat.xexprs[n] for n in X_NAMES], params, ring)
    if not phi.is_zero():
        bad.append(("phi", cat.tag, "cubic not satisfied"))
    return certify(f"commutant-{tag}", "x-expressions: frozen commutation and cubic",
                   f"{tag} coordinates in arc lengths", not bad,
                   detail=f"frozen: {','.join(cat.frozen)}",
                   residue=bad[:4])


def pvi_from_pv_check() -> Certificate:
    """The four-hole coordinates recovered in the PV arc algebra satisfy their cubic."""
    data = catalog.load("lambdas")["pvi_from_pv"]
    cat = lambda_catalog("PV")
    ring = cat.lambda_ring
    with catalog.context("lambdas.json pvi_from_pv"):
        xs = {n: parse_expr(s, ring) for n, s in data["xexprs"].items()}
        ident = {g: parse_expr(s, ring) for g, s in data["identifications"].items()}
    phi = pulled_back("PVI", [xs[n] for n in X_NAMES], ident, ring)
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
    sig = signature(cat.signature)
    count = len(cat.entries) + len(cat.params)
    ok = sig.dimension() == count
    return certify(f"lamination-count-{tag}", "arc count matches moduli dimension",
                   f"{tag} lamination", ok,
                   detail=f"dim {sig.dimension()} = {len(cat.entries)} arcs + {len(cat.params)} loops")


# -- signatures (irregularity bookkeeping) ------------------------------------


class Signature(NamedTuple):
    tag: str
    holes: tuple       # cusps per hole of the actual (genus 0) surface
    stated_dim: int
    phantom_hole: bool

    @property
    def row(self) -> tuple:
        """The classical per-singular-point cusp tuple: the holes, after a
        phantom uncusped point when the surface has one."""
        return (0,) * self.phantom_hole + self.holes

    def dimension(self) -> int:
        return 3 * len(self.holes) + 2 * sum(self.holes) - 6

    def katz(self) -> tuple:
        return tuple(Fraction(c, 2) for c in self.row)

    def stokes_rays(self) -> tuple:
        return tuple(self.row)

    def pole_orders(self) -> tuple:
        return tuple(c + 2 for c in self.row)


@catalog.cached
def signature(tag: str) -> Signature:
    data = catalog.load("signatures")["signatures"]
    if tag not in data:
        raise catalog.UnknownEntry(f"no signature for {tag!r}")
    entry = data[tag]
    with catalog.context(f"signatures.json signatures.{tag}"):
        return Signature(tag=tag, holes=tuple(entry["holes"]), stated_dim=int(entry["dim"]),
                         phantom_hole=bool(entry.get("phantom_hole", False)))


def signature_check(tag: str) -> Certificate:
    sig = signature(tag)
    ok = sig.dimension() == sig.stated_dim
    katz = ",".join(str(k) for k in sig.katz())
    detail = (f"s={len(sig.holes)} n={sum(sig.holes)} dim={sig.dimension()} "
              f"katz={katz} stokes={','.join(map(str, sig.stokes_rays()))} "
              f"poles={','.join(map(str, sig.pole_orders()))}")
    if sig.phantom_hole:
        detail += " (row keeps a phantom uncusped point)"
    return certify(f"signature-{tag}", "irregularity arithmetic",
                   f"{tag} surface signature", ok, detail=detail)

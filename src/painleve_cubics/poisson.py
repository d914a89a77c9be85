"""Log-canonical Poisson structures and the Jacobian bracket on cubics.

A PoissonStructure is a constant antisymmetric pairing P on the
generators of a ring, inducing {g^a, g^b} = (a^T P b) g^{a+b} on
monomials and extending bilinearly.  P is stored once, as the
antisymmetric integer matrix M = den * P over one common denominator, so a
bracket needs one dot product a . M b per term pair.  Each monomial key
is decoded to (a, M a) once per structure and memoised: the brackets of
a run revisit few keys (188 distinct keys among the 1,629 terms one
``verify-all`` brackets), so the memo stays small.  On exponentiated
coordinates (g_z = e^{z/2}) the pairing is the coordinate bracket over 4:
{z_i, z_j} = c  <=>  P(z_i, z_j) = c/4; ``from_log_brackets`` performs
that conversion, ``log_bracket`` inverts it.

NambuContext carries the bracket a cubic polynomial phi induces on
C[x1,x2,x3], x1, x2, x3 being generators of phi's ring: {x1,x2} =
d(phi)/d(x3) and cyclic, extended as a biderivation; phi itself is a
Casimir by construction of the formula, which the certificates confirm
symbolically.

``casimir_kernel`` and ``solve_structure`` import ``linalg`` when called, so
building a structure or taking a bracket never loads it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Mapping, Sequence

from .catalog import X_NAMES
from .ring import LaurentPoly, Ring, RingError, _div, _q, quotient


class PoissonStructure:
    __slots__ = ("ring", "_den", "_matrix", "_decoded")

    def __init__(self, ring: Ring, pairs: Mapping[tuple, Fraction]):
        """pairs maps (name_i, name_j) -> P(i,j); antisymmetry is implied."""
        self.ring = ring
        pairs = {uv: Fraction(c) for uv, c in pairs.items()}
        # P over one common denominator: an antisymmetric int matrix
        self._den = lcm(*(c.denominator for c in pairs.values()))
        self._matrix = matrix = [[0] * len(ring.names) for _ in ring.names]
        for (u, v), c in pairs.items():
            if u not in ring.index or v not in ring.index:
                raise RingError(f"pairing on unknown generators ({u},{v})")
            i, j, m = ring.index[u], ring.index[v], int(c * self._den)
            if not m:
                continue
            if i == j:
                raise RingError("nonzero diagonal pairing")
            if matrix[i][j] not in (0, m):
                raise RingError(f"conflicting pairing on ({u},{v})")
            matrix[i][j], matrix[j][i] = m, -m
        self._decoded: dict = {}  # key -> (exponent vector a, M a)

    def _times(self, b: Sequence) -> list:
        """M b for the integer pairing matrix M = den * P."""
        return [sum(map(mul, row, b)) for row in self._matrix]

    def _decode(self, key: int) -> tuple:
        """(a, M a) for the exponent vector a of ``key``, memoised."""
        a = self.ring.unpack(key)
        out = self._decoded[key] = (a, self._times(a))
        return out

    @classmethod
    def from_log_brackets(cls, ring: Ring, log_pairs: Mapping[tuple, Fraction]) -> "PoissonStructure":
        return cls(ring, {k: Fraction(v) / 4 for k, v in log_pairs.items()})

    def pair(self, u: str, v: str) -> Fraction:
        return Fraction(self._matrix[self.ring.index[u]][self.ring.index[v]], self._den)

    def log_bracket(self, u: str, v: str) -> Fraction:
        return 4 * self.pair(u, v)

    def pair_exps(self, a: Sequence, b: Sequence) -> Fraction:
        """a^T P b."""
        return Fraction(sum(map(mul, a, self._times(b))), self._den)

    def bracket(self, f: LaurentPoly, g: LaurentPoly, c: Fraction = 0) -> LaurentPoly:
        """{f, g} - c f g: the bracket itself for c = 0, in one pass over the term pairs."""
        if f.ring != self.ring or g.ring != self.ring:
            raise RingError("bracket arguments outside the structure's ring")
        # sums of den * coefficient over the term pairs: a . M b for keys a, b
        ring = self.ring
        decoded = self._decoded
        decode = self._decode
        out: dict = {}
        get = out.get
        right = [(kb, cb, (decoded.get(kb) or decode(kb))[1]) for kb, cb in g.terms.items()]
        shift = _q(c * self._den)
        zero = ring._zero
        for ka, ca in f.terms.items():
            ea = (decoded.get(ka) or decode(ka))[0]
            ka -= zero
            for kb, cb, mb in right:
                k = sum(map(mul, ea, mb)) - shift
                if k:
                    key = ka + kb
                    out[key] = get(key, 0) + ca * cb * k
        den = self._den
        return ring.collect({key: _div(c, den) for key, c in out.items()})

    def bracket_expr(self, A, B, c: Fraction = 0):
        """{A, B} - c A B for LaurentPoly or RationalExpr values: ``bracket``
        for two Laurent polynomials, else the Leibniz rule on num/den, whose
        value ``quotient`` builds."""
        if A.is_poly() and B.is_poly():
            return self.bracket(A, B, c)
        p, q, r, s = A.num, A.den, B.num, B.den
        br = self.bracket
        num = (br(p, r, c) * q * s - br(p, s) * q * r - br(q, r) * p * s + br(q, s) * p * r)
        return quotient(num, q * q * s * s)

    def table_residues(self, images: Mapping, table: Mapping[tuple, Fraction]) -> list:
        """(u, v, residue) for each entry of ``table`` whose images break
        {U, V} = c U V, the residue being {U, V} - c U V.

        ``images`` maps the table's names to LaurentPoly or RationalExpr over
        the structure's ring.
        """
        out = []
        for (u, v), c in table.items():
            residue = self.bracket_expr(images[u], images[v], c)
            if not residue.is_zero():
                out.append((u, v, residue))
        return out

    def to_json(self) -> dict:
        names = self.ring.names
        return {f"{names[i]},{names[j]}": str(Fraction(4 * m, self._den))
                for i, row in enumerate(self._matrix) for j, m in enumerate(row) if j > i and m}


# kernel: list of {name: int} exponent dicts over the input monomials
class CasimirReport(namedtuple("CasimirReport", "rank kernel")):
    __slots__ = ()

    def kernel_names(self) -> list:
        out = []
        for vec in self.kernel:
            parts = []
            for name, e in vec.items():
                parts.append(name if e == 1 else f"{name}^{e}")
            out.append("*".join(parts))
        return out


def casimir_kernel(structure: PoissonStructure, monomials: Mapping[str, LaurentPoly]) -> CasimirReport:
    """Kernel of the exponent pairing restricted to the given monomial lattice.

    Kernel vectors name monomial Casimirs (products of the inputs); the rank
    of the restricted pairing is the symplectic leaf dimension.
    """
    from . import linalg

    names = list(monomials)
    vecs = []
    for name in names:
        m = monomials[name]
        if not m.is_monomial():
            raise RingError(f"casimir_kernel needs monomials; {name} is not")
        vecs.append(m.monomial_exps())
    gram = [[structure.pair_exps(a, b) for b in vecs] for a in vecs]
    basis = linalg.kernel_basis(gram, len(names))
    kernel = [{names[i]: int(v[i]) for i in range(len(names)) if v[i] != 0} for v in basis]
    return CasimirReport(rank=len(names) - len(basis), kernel=kernel)


def is_casimir_product(structure: PoissonStructure, candidate: Mapping[str, int],
                       monomials: Mapping[str, LaurentPoly]) -> bool:
    """Does the monomial product named by ``candidate`` commute with every input?"""
    ring = structure.ring
    vec = [0] * len(ring.names)
    for name, e in candidate.items():
        for i, x in enumerate(monomials[name].monomial_exps()):
            vec[i] += e * x
    return all(structure.pair_exps(vec, m.monomial_exps()) == 0 for m in monomials.values())


# the solved PoissonStructure, the pairs left free (set to zero), the violated equations
SolveResult = namedtuple("SolveResult", "structure free_pairs violations", defaults=((), ()))


def solve_structure(ring: Ring,
                    monomials: Mapping[str, LaurentPoly],
                    table: Mapping[tuple, Fraction],
                    central: Sequence[str] = ()) -> SolveResult:
    """Recover a generator pairing from pairwise bracket coefficients.

    ``table`` maps (name_u, name_v) to c_uv with {u, v} = c_uv * u * v;
    ``central`` lists generators whose pairings are forced to zero.  The
    system is solved exactly; leftover freedom is reported (free pairs set
    to zero), and inconsistencies are returned as readable equations.
    """
    from . import linalg

    central = set(central)
    gens = [n for n in ring.names if n not in central]
    unknowns = [(gens[i], gens[j]) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    rows, rhs, labels = [], [], []
    for (u, v), c in table.items():
        iu = dict(zip(ring.names, monomials[u].monomial_exps()))
        iv = dict(zip(ring.names, monomials[v].monomial_exps()))
        rows.append([iu[a] * iv[b] - iu[b] * iv[a] for a, b in unknowns])
        rhs.append(Fraction(c))
        labels.append(f"{{{u},{v}}} = {c}*{u}*{v}")
    if not rows:
        return SolveResult(structure=PoissonStructure(ring, {}),
                           free_pairs=list(unknowns), violations=[])
    x, free, bad = linalg.solve(rows, rhs)
    pairs = {unknowns[k]: x[k] for k in range(len(unknowns)) if x[k] != 0}
    structure = PoissonStructure(ring, pairs)
    return SolveResult(structure=structure,
                       free_pairs=[unknowns[k] for k in free],
                       violations=[labels[i] for i in bad])


class NambuContext:
    """The bracket {x_i, x_j} = d(phi)/d(x_k) (cyclic) on the ring of ``phi``,
    whose coordinates are x1, x2, x3."""

    def __init__(self, phi: LaurentPoly):
        self.ring = phi.ring
        self.phi = phi
        for name in X_NAMES:
            if name not in self.ring.index:
                raise RingError(f"missing coordinate {name!r}")
        for exps, _ in phi.items():
            for name in X_NAMES:
                if exps[self.ring.index[name]] < 0:
                    raise RingError("phi must be polynomial in the surface coordinates")
        self._grad = tuple(phi.derivative(n) for n in X_NAMES)

    def bracket(self, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        df = [f.derivative(n) for n in X_NAMES]
        dg = [g.derivative(n) for n in X_NAMES]
        total = self.ring.zero()
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            total = total + self._grad[k] * (df[i] * dg[j] - df[j] * dg[i])
        return total


def jacobiator(bracket: Callable, f: LaurentPoly, g: LaurentPoly, h: LaurentPoly) -> LaurentPoly:
    """{f, {g, h}} + {g, {h, f}} + {h, {f, g}} for the two-argument ``bracket``."""
    return bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, bracket(f, g))

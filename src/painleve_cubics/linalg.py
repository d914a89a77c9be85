"""Small exact linear algebra over Q (fraction-free Gauss-Jordan elimination).

Just enough for the kernel/rank computations behind Casimir analysis and
for solving the linear systems that recover Poisson pairings from
bracket tables.  Rows are lists of ints and Fractions; the elimination
runs over the integers (Bareiss, Math. Comp. 1968, with each new row
divided by its content) and only the reduced rows are returned as
Fractions.  Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _int_row(row) -> list:
    """``row`` (ints and Fractions) scaled to integers by the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _row_reduce(rows: list) -> tuple:
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Each row is scaled to integers; a pivot row r clears column c from
    row i as ``pv*row_i - f*row_r``, and every new row is divided by the
    gcd of its entries, so entries stay small.  Returns (pivot columns,
    reduced rows): one integer row per pivot, a multiple of the matching
    RREF row, so its entries over its pivot entry are the RREF entries.
    """
    rows = [_int_row(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                new = [pv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows[:r]


def rank(rows: list) -> int:
    pivots, _ = _row_reduce(rows)
    return len(pivots)


def kernel_basis(rows: list, ncols: int) -> list:
    """Basis of {v : A v = 0}, scaled to coprime integer vectors."""
    pivots, red = _row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(_integerise(v))
    return basis


def _integerise(v: list) -> list:
    # coprime already: v has an entry 1, and for a prime r of the lcm of the
    # denominators, the entry whose denominator has the most factors r is scaled prime to r
    ints = _int_row(v)
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def _particular(pivots: list, red: list, ncols: int) -> list:
    """The solution of a reduced augmented system with every free variable 0."""
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(row[ncols], row[pc])
    return x


def solve(rows: list, rhs: list) -> tuple:
    """Solve A x = b exactly.

    Returns (solution, free_cols, inconsistent_rows): the particular
    solution sets every free variable to zero; inconsistent_rows lists the
    indices of input equations that cannot be satisfied (empty means the
    system is consistent).
    """
    if not rows:
        return [], [], []
    ncols = len(rows[0])
    aug = [[*r, b] for r, b in zip(rows, rhs)]
    pivots, red = _row_reduce(aug)
    if ncols not in pivots:
        free = [c for c in range(ncols) if c not in pivots]
        return _particular(pivots, red, ncols), free, []
    # Inconsistent: solve a maximal consistent subsystem greedily and report
    # every original equation the result violates.
    sub: list = []
    for row in aug:
        piv, _ = _row_reduce(sub + [row])
        if ncols not in piv:
            sub.append(row)
    piv, red = _row_reduce(sub)
    x = _particular(piv, red, ncols)
    bad = [i for i, (r, b) in enumerate(zip(rows, rhs))
           if sum(a * xv for a, xv in zip(r, x)) != b]
    free = [c for c in range(ncols) if c not in piv]
    return x, free, bad

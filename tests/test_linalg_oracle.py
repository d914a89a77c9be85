"""Differential tests of the exact linear algebra and the Poisson pairing.

``linalg`` eliminates over the integers; sympy's ``Matrix.rref`` over Q is
the independent oracle.  Matrices carry denominators 1 to 4, zero rows and
duplicate rows.  ``PoissonStructure`` keeps its pairing as an integer matrix
over one denominator; a plain Fraction sum over the stored pairs is the
oracle for ``pair_exps`` and ``bracket``.
"""

from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from painleve_cubics import linalg
from painleve_cubics.poisson import PoissonStructure
from painleve_cubics.ring import Ring

from laurent import poly

sympy = pytest.importorskip("sympy")

SETTINGS = settings(max_examples=80, deadline=None)

entries = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4]))


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """Rows of equal length, with a zero row and a duplicated row sometimes mixed in."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=max_rows))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return rows


def to_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def frac(x):
    return Fraction(int(x.p), int(x.q))


def oracle_kernel(rows, ncols):
    """linalg's kernel construction, run on sympy's RREF."""
    red, pivots = to_matrix(rows).rref()
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -frac(red[r, fc])
        basis.append(linalg._integerise(v))
    return basis


def oracle_particular(rows, rhs):
    """(pivot-based particular solution, free columns) from sympy's RREF of [A | b]."""
    ncols = len(rows[0])
    red, pivots = to_matrix([[*r, b] for r, b in zip(rows, rhs)]).rref()
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = frac(red[r, ncols])
    return x, [c for c in range(ncols) if c not in pivots]


@SETTINGS
@given(matrices())
def test_rank_and_kernel_match_rref(rows):
    ncols = len(rows[0])
    assert linalg.rank(rows) == to_matrix(rows).rank()
    basis = linalg.kernel_basis(rows, ncols)
    assert basis == oracle_kernel(rows, ncols)
    A = to_matrix(rows)
    for v in basis:
        assert A * sympy.Matrix(v) == sympy.zeros(len(rows), 1)
        assert gcd(*v) == 1 and next(x for x in v if x) > 0


@SETTINGS
@given(matrices(), st.data())
def test_solve_consistent_matches_rref(rows, data):
    ncols = len(rows[0])
    x0 = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
    x, free, bad = linalg.solve(rows, rhs)
    assert bad == []
    assert (x, free) == oracle_particular(rows, rhs)
    assert all(sum(a * b for a, b in zip(r, x)) == c for r, c in zip(rows, rhs))


def test_solve_of_no_equations_is_empty():
    assert linalg.solve([], []) == ([], [], [])


def greedy_violations(rows, rhs):
    """Keep each equation that leaves the kept set consistent; solve the kept
    set with its free variables 0; list the equations that solution breaks."""
    kept = []
    for k in range(len(rows)):
        trial = kept + [k]
        A = to_matrix([rows[i] for i in trial])
        Ab = to_matrix([[*rows[i], rhs[i]] for i in trial])
        if A.rank() == Ab.rank():
            kept = trial
    x, _ = oracle_particular([rows[i] for i in kept], [rhs[i] for i in kept])
    return x, [i for i, (r, b) in enumerate(zip(rows, rhs))
               if sum(a * v for a, v in zip(r, x)) != b]


@SETTINGS
@given(matrices(), st.data())
def test_solve_inconsistent_reports_the_violated_rows(rows, data):
    ncols = len(rows[0])
    x0 = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
    # a nonzero row repeated with another right-hand side cannot be satisfied
    k = data.draw(st.sampled_from([i for i, r in enumerate(rows) if any(r)] or [None]))
    if k is None:
        rows, rhs, k = rows + [[Fraction(1)] * ncols], rhs + [sum(x0)], len(rows)
    rows, rhs = rows + [list(rows[k])], rhs + [rhs[k] + data.draw(entries.filter(bool))]
    x, free, bad = linalg.solve(rows, rhs)
    expected_x, expected_bad = greedy_violations(rows, rhs)
    assert bad == expected_bad and bad
    assert x == expected_x


# -- the pairing matrix ---------------------------------------------------------

RING = Ring(("a", "b", "c", "d", "eps"))
ring_poly = partial(poly, RING)  # {exponent vector: coefficient} -> LaurentPoly
NAMES = RING.names[:4]

pairings = st.dictionaries(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)).filter(lambda p: p[0] != p[1])
    .map(lambda p: tuple(sorted(p))),
    entries, max_size=6)
exps = st.tuples(*[st.integers(-2, 2)] * 4, st.integers(-3, 3))
laurent = st.dictionaries(exps, entries.filter(bool), min_size=1, max_size=4).map(ring_poly)


def naive_pair(pairs, a, b):
    """a^T P b, summed over the drawn pairs (u, v) -> P(u, v)."""
    at = RING.index
    return sum((c * (a[at[u]] * b[at[v]] - a[at[v]] * b[at[u]]) for (u, v), c in pairs.items()),
               Fraction(0))


@SETTINGS
@given(pairings, exps, exps)
def test_pair_exps_matches_the_pair_sum(pairs, a, b):
    S = PoissonStructure(RING, pairs)
    assert S.pair_exps(a, b) == naive_pair(pairs, a, b)
    assert S.pair_exps(a, b) == -S.pair_exps(b, a)
    assert type(S.pair_exps(a, b)) is Fraction


@SETTINGS
@given(pairings, laurent, laurent)
def test_bracket_matches_the_pair_sum(pairs, f, g):
    S = PoissonStructure(RING, pairs)
    sums: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            sums[key] = sums.get(key, 0) + ca * cb * naive_pair(pairs, ea, eb)
    got = S.bracket(f, g)
    assert got == poly(RING, sums)
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
    assert all(type(x) is int for e, _ in got.items() for x in e)


@SETTINGS
@given(pairings, laurent, laurent, entries)
def test_shifted_bracket_is_the_bracket_minus_c_f_g(pairs, f, g, c):
    S = PoissonStructure(RING, pairs)
    got = S.bracket(f, g, c)
    assert got == S.bracket(f, g) - c * f * g
    assert all(type(x) is int or x.denominator != 1 for x in got.terms.values())
    assert all(type(x) is int for e, _ in got.items() for x in e)

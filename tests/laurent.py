"""Test-side Laurent-polynomial helpers, built only on the kernel's public reads
and constructors, so that tests can compare the kernel against them."""

from fractions import Fraction

from painleve_cubics.ring import RationalExpr, RingError


def poly(ring, terms: dict):
    """The polynomial of {exponent vector: coefficient} over ``ring``."""
    return sum((ring.monomial(dict(zip(ring.names, exps)), c) for exps, c in terms.items()),
               ring.zero())


def evaluate(p, point: dict) -> Fraction:
    """The value of a LaurentPoly or RationalExpr at ``point``, which maps every
    generator of the support to a nonzero value."""
    if isinstance(p, RationalExpr):
        return evaluate(p.num, point) / evaluate(p.den, point)
    total = Fraction(0)
    for exps, c in p.items():
        term = Fraction(c)
        for name, e in zip(p.ring.names, exps):
            if e:
                if not point[name]:
                    raise RingError(f"generators must evaluate to nonzero values ({name})")
                term *= Fraction(point[name]) ** e
        total += term
    return total


def content(p) -> tuple:
    """The Laurent content: the componentwise minimum exponent over the terms of ``p``."""
    return tuple(map(min, zip(*(exps for exps, _ in p.items()))))

"""Exact division and genuine quotients, loaded on first use.

A value is a ``LaurentPoly`` whenever it is one.  ``ring.quotient(num, den)``
builds every quotient: by a monomial it stays in the Laurent ring, as does
an exact one, and only a genuine quotient becomes a ``RationalExpr``.  Both
types read as num/den (a ``LaurentPoly`` is its own numerator over the
ring's unit), and equality of genuine quotients is tested by
cross-multiplication.  A ``LaurentPoly`` operator given a ``RationalExpr``
returns ``NotImplemented``, so the reflected methods here (``__radd__``,
``__rsub__``, ``__rmul__``, ``__rtruediv__``, and ``__eq__``) answer.

Exact division (``divide_exact``) is lead-term division on one mutable
remainder dict whose leading key comes from a heap of plain ints with lazy
deletion, after Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors" (CASC 2007).  Integer order of
keys is lexicographic order of the exponents, a monomial order.

``ring.quotient`` imports this module only for a non-monomial denominator,
the one case that needs it, so a call that never divides by one compiles
none of it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Mapping

from .ring import _BIAS, LaurentPoly, Ring, RingError, _div, quotient


def divide_exact(f: LaurentPoly, g: LaurentPoly):
    """Exact quotient f/g in the Laurent ring, or None when not divisible.

    Both arguments are reduced by their monomial content (units here), then
    ordinary multivariate lead-term division is run on one mutable remainder
    dict; a nonzero remainder means no quotient exists.  The term order
    is the integer order of the keys, lexicographic on the exponents, so the
    remainder's leading key comes from a heap of negated keys.  A key stays in
    the heap after its term cancels (lazy deletion) and is skipped when popped;
    a key is pushed again only when it re-enters the remainder.  Every step
    cancels the current leading term and adds only smaller ones, so no key is
    processed twice.

    After the reduction every exponent of f and g lies in 0 .. B-1, B the
    field bias, or RingError is raised.  A remainder key r then has fields
    below 3B, and r - glead + zero has its bias bit set in every field exactly
    when glead divides r with a quotient exponent below B, so keys formed
    from it stay below 3B and no field carries.  When g divides f every term
    the division forms lies in the Newton polytope of f, where exponents are
    below B, so the test refuses only what no quotient could produce.
    """
    if g.is_zero():
        raise RingError("division by the zero polynomial")
    if f.is_zero():
        return f.ring.zero()
    if f.ring != g.ring:
        raise RingError("mixed ring contexts in divide_exact")
    ring = f.ring
    zero, guard = ring._zero, ring._guard
    cf, cg = f._content_key(), g._content_key()
    rem = {k - cf + zero: c for k, c in f.terms.items()}
    gred = {k - cg + zero: c for k, c in g.terms.items()}
    if (reduce(or_, rem, 0) | reduce(or_, gred, 0)) & guard:
        raise RingError(f"exponent overflow in {ring}: an exponent span exceeds "
                        f"{_BIAS - 1} in divide_exact")
    glead = max(gred)
    glc = gred.pop(glead)
    tail = list(gred.items())
    shift = cf - cg
    heap = [-k for k in rem]
    heapify(heap)
    out: dict = {}
    while rem:
        rkey = -heappop(heap)
        rc = rem.pop(rkey, None)
        if rc is None:
            continue
        step = rkey - glead
        if (step + zero) & zero != zero:
            return None
        qc = _div(rc, glc)
        out[step + zero + shift] = qc
        for gk, gc in tail:
            key = step + gk
            v = rem.get(key)
            if v is None:
                rem[key] = -qc * gc
                heappush(heap, -key)
            else:
                v -= qc * gc
                if v:
                    rem[key] = v
                else:
                    del rem[key]
    return ring.collect(out)




class RationalExpr:
    """A genuine quotient num/den of two Laurent polynomials, built by ``ring.quotient``.

    The denominator has content 0 (its least exponent in each generator)
    and leading coefficient 1.  Quotients that are Laurent polynomials are
    LaurentPoly values, never RationalExprs.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        key = den._content_key()
        if key != den.ring._zero:  # content 0 already: no unit to divide out
            unit = LaurentPoly(num.ring, {key: 1}) ** -1
            num, den = num * unit, den * unit
        _, lc = den.lead()
        if lc != 1:
            inv = num.ring.const(_div(1, lc))
            num = num * inv
            den = den * inv
        self.num, self.den = num, den

    @property
    def ring(self) -> Ring:
        return self.num.ring

    def is_poly(self) -> bool:
        return False

    def as_poly(self) -> LaurentPoly:
        raise RingError(f"not a Laurent polynomial: denominator {self.den}")

    def is_zero(self) -> bool:
        return False

    def _coerce(self, other):
        if isinstance(other, (RationalExpr, LaurentPoly)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return quotient(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalExpr(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return quotient(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return quotient(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return quotient(other * self.den, self.num)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise RingError("exponent must be an integer")
        if n == 0:
            return self.ring.one()
        if n < 0:
            return quotient(self.den, self.num) ** -n
        return quotient(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def substitute(self, images: Mapping[str, object], ring: Ring | None = None):
        return self.num.substitute(images, ring) / self.den.substitute(images, ring)

    def to_text(self) -> str:
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    __str__ = to_text

    def __repr__(self) -> str:
        return f"<RationalExpr {self.to_text()}>"

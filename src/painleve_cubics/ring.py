"""Exact Laurent-polynomial and rational-expression arithmetic over Q.

Every symbolic quantity in this package lives in a ring of named,
invertible generators with exact rational coefficients:

    poly  =  sum of   coeff * g1^e1 * g2^e2 * ...

stored as a dict mapping one packed int per monomial to a nonzero exact
coefficient: an ``int`` when the value is integral on construction, a
``Fraction`` otherwise, so products of integral coefficients are plain
integer arithmetic.  Reciprocals are built as ``_div(1, c)``, an int for
c = 1 or -1 and a ``Fraction`` otherwise, since ``1 / c`` of an int is
inexact.  No zero coefficients are kept, so equality is structural;
printing sorts the terms in graded-lexicographic order of their
exponents, so it is deterministic.

Packed exponents, after Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors" (CASC 2007).  Each
generator owns one ``FIELD_BITS``-wide field of the key, generator 0 in the
most significant bits.  A field holds its exponent plus the bias
B = 2^(FIELD_BITS - 2), so exponents -B .. B-1 are stored as 0 .. 2B-1 and
the top bit of every field, its guard, is clear.  The key of the monomial
1, ``Ring._zero``, has B in every field; a product of monomials has key
k1 + k2 - zero.  An exponent that leaves its field range sets a guard bit:
the lowest such field either reaches 2B or borrows from the field above it,
and borrowing leaves it at 3B or more.  ``Ring.collect`` tests the guards
of every key it is given and raises ``RingError`` naming the ring, so a key
never wraps into a wrong one.  Readers that need exponent vectors decode
the keys with ``Ring.unpack`` or ``LaurentPoly.items()``.

Convention for exponentiated coordinates: a generator named ``z`` stands
for e^{z/2}, so e^{z} is g_z^2 and e^{z/2} is g_z^1.  Every exponent is an
``int``, and no generator name is special.  A scaling z -> z + c log(epsilon)
sends g_z to epsilon^{c/2} g_z, so it multiplies the monomial with exponents
e by epsilon^{d/2}, d = sum_z c_z e_z, an integer read off the monomial's key;
``LaurentPoly.graded(shift)`` splits a polynomial by d.

A value is a ``LaurentPoly`` whenever it is one.  ``quotient(num, den)``
builds every quotient: by a monomial it stays in the Laurent ring, as does
an exact one, and only a genuine quotient becomes a ``RationalExpr``.  Both
types read as num/den (a ``LaurentPoly`` is its own numerator over the
ring's unit), and equality of genuine quotients is tested by
cross-multiplication.  Exact division (``divide_exact``) is lead-term
division on one mutable remainder dict whose leading key comes from a heap
of plain ints with lazy deletion.  Integer order of keys is lexicographic
order of the exponents, a monomial order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import add, or_, sub
from struct import Struct
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]

FIELD_BITS = 16  # ``Ring.unpack`` reads the fields back as 16-bit signed ints
_BIAS = 1 << (FIELD_BITS - 2)
_MASK = (1 << FIELD_BITS) - 1


class RingError(ValueError):
    """Raised on malformed ring operations (mixed contexts, bad exponents...)."""


def _q(x: Scalar) -> Scalar:
    """Normalise a scalar: integral Fractions become ints."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise RingError(f"non-exact scalar {x!r}")


def _scalar(x) -> Scalar:
    """An exact coefficient or exponent: an int when integral, else a Fraction."""
    return x if type(x) is int else _q(x)


def _div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a/b of two coefficients, an int when it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _q(Fraction(a, b))


def _exact_root(n: int, k: int) -> int | None:
    """The k-th root of the positive integer ``n`` when it is an integer, else None."""
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) is at least the root
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s  # Newton's step from above stops at the floor of the root
    return r if r ** k == n else None


class Ring:
    """A context of named invertible generators.

    Polynomials from rings with different generator names never mix.  The
    unit polynomial is built once per ring and shared, which is safe because
    no operation changes a polynomial's terms in place.
    """

    __slots__ = ("names", "index", "_zero", "_guard", "_shifts", "_fields", "_one")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingError(f"duplicate generator names in {names}")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self._shifts = tuple(FIELD_BITS * i for i in reversed(range(len(names))))
        self._zero = sum(_BIAS << s for s in self._shifts)
        self._guard = self._zero << 1
        self._fields = Struct(f">{len(names)}h")
        self._one = LaurentPoly(self, {self._zero: 1})

    def __repr__(self) -> str:
        return f"Ring({', '.join(self.names)})"

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Ring) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    # -- packed exponent keys ----------------------------------------

    def _field(self, i: int, e) -> int:
        """The field value, before the bias, of exponent ``e`` on generator ``i``."""
        e = _scalar(e)
        if type(e) is not int:
            raise RingError(f"non-integer exponent {e} on generator {self.names[i]!r}")
        if not -_BIAS <= e < _BIAS:
            raise RingError(f"exponent {e} on generator {self.names[i]!r} overflows "
                            f"its {FIELD_BITS}-bit field in {self}")
        return e

    def unpack(self, key: int) -> tuple:
        """The exponent vector of ``key``: the field values less the bias.

        Adding the zero key makes each field v + 2B, which flipping the guard
        bit turns into v in 16-bit two's complement, with no carry between
        fields; ``struct`` then reads every field at once.
        """
        fields = self._fields
        return fields.unpack(((key + self._zero) ^ self._guard).to_bytes(fields.size, "big"))

    # -- constructors ------------------------------------------------

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self._one

    def const(self, c: Scalar) -> "LaurentPoly":
        c = _scalar(c)
        return LaurentPoly(self, {self._zero: c} if c else {})

    def gen(self, name: str, power: Scalar = 1) -> "LaurentPoly":
        i = self.index.get(name)
        if i is None:
            raise RingError(f"generator {name!r} not in {self}")
        return LaurentPoly(self, {self._zero + (self._field(i, power) << self._shifts[i]): 1})

    def monomial(self, exps: Mapping[str, Scalar], coeff: Scalar = 1) -> "LaurentPoly":
        c = _scalar(coeff)
        if not c:
            return self.zero()
        key = self._zero
        for name, e in exps.items():
            i = self.index.get(name)
            if i is None:
                raise RingError(f"generator {name!r} not in {self}")
            key += self._field(i, e) << self._shifts[i]
        return LaurentPoly(self, {key: c})

    def e(self, halves: Mapping[str, Scalar], coeff: Scalar = 1) -> "LaurentPoly":
        """Monomial e^{sum c_z * z} on the g_z = e^{z/2} convention.

        The value for key ``z`` is the coefficient of z in the exponent of
        e, so the generator exponent is 2*c_z.
        """
        return self.monomial({n: 2 * _scalar(c) for n, c in halves.items()}, coeff)

    def collect(self, sums: dict) -> "LaurentPoly":
        """Polynomial of {key: coefficient sum}: zeros dropped, integral coefficients made int.

        Raises RingError when a key has a guard bit set, that is when an
        exponent left its field while the key was computed.
        """
        if reduce(or_, sums, 0) & self._guard:
            raise RingError(f"exponent overflow in {self}: an exponent left its "
                            f"{FIELD_BITS}-bit field")
        return LaurentPoly(self, {k: c if type(c) is int else _q(c)
                                  for k, c in sums.items() if c})


def _grlex_key(exps: tuple):
    return (sum(exps), exps)


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial over Q.  Like a
    RationalExpr it reads as num/den: itself over the ring's unit."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        terms = self.terms
        return len(terms) == 1 and terms.get(self.ring._zero) == 1

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {self.ring._zero}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    @property
    def num(self) -> "LaurentPoly":
        return self

    @property
    def den(self) -> "LaurentPoly":
        return self.ring._one

    def is_poly(self) -> bool:
        return True

    def as_poly(self) -> "LaurentPoly":
        return self

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise RingError(f"not a constant: {self}")
        return self.terms.get(self.ring._zero, 0)

    def monomial_exps(self) -> tuple:
        if not self.is_monomial():
            raise RingError(f"not a monomial: {self}")
        return self.ring.unpack(next(iter(self.terms)))

    def items(self) -> list:
        """(exponent vector, coefficient) of every term, in storage order."""
        unpack = self.ring.unpack
        return [(unpack(k), c) for k, c in self.terms.items()]

    def sorted_terms(self) -> list:
        return sorted(self.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def lead(self) -> tuple:
        """(exps, coeff) of the graded-lex leading term."""
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        return max(self.items(), key=lambda t: _grlex_key(t[0]))

    def _content_key(self) -> int:
        """The key of the componentwise minimum exponent over the support.

        All fields at once: a field of (m | guard) - k is m_i + 2B - k_i,
        positive, so no field borrows, and its guard bit is set exactly when
        m_i >= k_i; those fields of m are replaced by the fields of k.
        """
        if not self.terms:
            raise RingError("zero polynomial has no content")
        guard = self.ring._guard
        keys = iter(self.terms)
        m = next(keys)
        for k in keys:
            m ^= (m ^ k) & ((((m | guard) - k) & guard) >> (FIELD_BITS - 1)) * _MASK
        return m

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingError(f"mixed ring contexts {self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _merged(self, other: "LaurentPoly", op) -> "LaurentPoly":
        """self + other or self - other (``op`` is add or sub), in one pass over other."""
        out = dict(self.terms)
        get = out.get
        for exps, c in other.terms.items():
            v = op(get(exps, 0), c)
            if v:
                out[exps] = v if type(v) is int else _q(v)
            else:
                del out[exps]
        return LaurentPoly(self.ring, out)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merged(other, add)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merged(other, sub)

    def __mul__(self, other):
        if isinstance(other, RationalExpr):
            return NotImplemented
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.ring.zero()
        out: dict = {}
        get = out.get
        right = other.terms.items()
        zero = self.ring._zero
        for k1, c1 in self.terms.items():
            k1 -= zero
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return self.ring.collect(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise RingError(f"exponent must be an integer, got {n!r}")
        if n < 0:
            if self.is_monomial():
                (k, c), = self.terms.items()
                inv = self.ring.collect({2 * self.ring._zero - k: _div(1, c)})
                return inv if n == -1 else inv ** -n
            return quotient(self.ring.one(), self ** -n)
        if n == 0:
            return self.ring.one()
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __truediv__(self, other):
        if isinstance(other, RationalExpr):
            return quotient(self * other.den, other.num)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return quotient(self, other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if isinstance(other, RationalExpr):
            return other == self
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    # -- calculus-style helpers ------------------------------------------

    def derivative(self, name: str) -> "LaurentPoly":
        """Formal d/dg_name (the generator itself, not e^{z/2} chain rules)."""
        ring = self.ring
        i = ring.index[name]
        s = ring._shifts[i]
        step = 1 << s
        out = {}
        # lowering the exponent of one generator is injective on the terms
        for k, c in self.terms.items():
            v = ((k >> s) & _MASK) - _BIAS
            if v:
                out[k - step] = c * v
        return ring.collect(out)

    def graded(self, weights: Mapping[str, int]) -> dict:
        """{d: the terms of weighted degree d}, the degree of a term with exponents
        e being the sum of ``weights[name] * e_name``; an unweighted generator has weight 0."""
        ring = self.ring
        fields = [(ring._shifts[ring.index[name]], w) for name, w in weights.items()]
        parts: dict = {}
        for k, c in self.terms.items():
            parts.setdefault(sum(w * (((k >> s) & _MASK) - _BIAS) for s, w in fields), {})[k] = c
        return {d: LaurentPoly(ring, terms) for d, terms in parts.items()}

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, object], ring: Ring | None = None):
        """Substitute generators by expressions.

        ``images`` maps generator names to LaurentPoly / RationalExpr /
        GenImage values (all over one target ring); unmapped generators pass
        through unchanged and must exist in the target ring.  A GenImage of
        granularity k gives the image of g_name^k; occurrences whose exponent
        is not a multiple of k are an error, unless the image is a monomial.

        The value is a LaurentPoly unless it is a genuine quotient.  The sum
        stays in the Laurent ring as long as it can.  The image of
        each (generator, exponent) pair is computed once per call.  A term
        whose factors are all polynomials is multiplied out and its terms
        are added to one dict.  The other terms are summed per denominator:
        every image denominator is normalised (content 0, leading
        coefficient 1), and so is a product of them, so equal denominators
        have equal term tuples.  Each of those sums becomes one ``quotient``,
        the first one with the polynomial part folded into its numerator.
        """
        norm: dict[str, GenImage] = {}
        target = ring
        for name, img in images.items():
            if name not in self.ring.index:
                raise RingError(f"substitution for unknown generator {name!r}")
            gi = img if isinstance(img, GenImage) else GenImage(img)
            norm[name] = gi
            if target is None:
                target = gi.expr.ring
            elif gi.expr.ring != target:
                raise RingError("substitution images live in mixed ring contexts")
        if target is None:
            target = self.ring
        names = self.ring.names
        unpack = self.ring.unpack
        zero = target._zero

        def image_power(name: str, e: int) -> tuple:
            """(numerator, denominator or None) of the image of g_name^e."""
            gi = norm.get(name)
            if gi is None:
                return target.gen(name, e), None
            if e % gi.granularity:
                if gi.expr.is_poly() and gi.expr.is_monomial():
                    return gi.monomial_root_power(e), None
                raise RingError("substitution requires half-power of non-monomial")
            p = gi.expr ** (e // gi.granularity)
            return (p, None) if p.is_poly() else (p.num, p.den)

        powers: dict = {}
        polys: dict = {}
        quotients: dict = {}  # denominator terms -> (denominator, numerator sums)
        for key, c in self.terms.items():
            num = den = None
            for i, e in enumerate(unpack(key)):
                if e == 0:
                    continue
                factor = powers.get((i, e))
                if factor is None:
                    factor = powers[i, e] = image_power(names[i], e)
                fnum, fden = factor
                num = fnum if num is None else num * fnum
                if fden is not None:
                    den = fden if den is None else den * fden
            if den is None:
                sums = polys
            else:
                sums = quotients.setdefault(tuple(sorted(den.terms.items())), (den, {}))[1]
            if num is None:
                sums[zero] = sums.get(zero, 0) + c
                continue
            get = sums.get
            for e, v in num.terms.items():
                sums[e] = get(e, 0) + c * v
        poly = target.collect(polys)
        total = None
        for den, sums in quotients.values():
            num = target.collect(sums)
            if total is None:
                total = quotient(num + poly * den if poly.terms else num, den)
            else:
                total = total + quotient(num, den)
        return poly if total is None else total

    # -- printing / serialisation -------------------------------------------

    def to_text(self) -> str:
        text = ""
        for exps, c in self.sorted_terms():
            mono = " * ".join(n if e == 1 else f"{n}^{e}" for n, e in zip(self.ring.names, exps) if e)
            mag = abs(c)
            body = f"{mag} * {mono}" if mono and mag != 1 else mono or str(mag)
            text += f" {'-' if c < 0 else '+'} {body}"
        # the first sign is written only when it is a minus, and without spaces
        return ("-" if text[1:2] == "-" else "") + text[3:] if text else "0"

    __str__ = to_text

    def __repr__(self) -> str:
        return f"<LaurentPoly {self.to_text()}>"

    def to_terms_json(self) -> list:
        return [{"c": str(c), "e": {n: str(e) for n, e in zip(self.ring.names, exps) if e}}
                for exps, c in self.sorted_terms()]


class GenImage:
    """Substitution image of g_name^granularity (see LaurentPoly.substitute)."""

    __slots__ = ("expr", "granularity")

    def __init__(self, expr: "LaurentPoly | RationalExpr", granularity: int = 1):
        if not isinstance(expr, (LaurentPoly, RationalExpr)):
            raise RingError(f"cannot interpret {expr!r} as an expression")
        self.expr = expr
        if granularity < 1:
            raise RingError("granularity must be >= 1")
        self.granularity = granularity

    def monomial_root_power(self, e: int) -> LaurentPoly:
        """Image of g_name^e when the image is a monomial (fractional powers ok)."""
        (exps, c), = self.expr.items()
        ratio = Fraction(e, self.granularity)
        k = ratio.denominator
        roots = (c, 1) if k == 1 else [_exact_root(n, k) if c > 0 else None
                                       for n in (c.numerator, c.denominator)]
        if None in roots:
            raise RingError(f"monomial image coefficient {c} has no positive rational root of order {k}")
        ring = self.expr.ring
        vec = {ring.names[i]: e_i * ratio for i, e_i in enumerate(exps) if e_i != 0}
        return ring.monomial(vec, Fraction(*roots) ** ratio.numerator)


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


def quotient(num: LaurentPoly, den: LaurentPoly):
    """num/den: a LaurentPoly when it is one (a monomial denominator is folded
    into ``num``, an exact one cancels), else a genuine RationalExpr."""
    if num.ring is not den.ring and num.ring != den.ring:
        raise RingError("numerator/denominator ring mismatch")
    if den.is_zero():
        raise RingError("zero denominator")
    if den.is_one() or num.is_zero():
        return num
    if den.is_monomial():
        return num * den ** -1
    q = divide_exact(num, den)
    return RationalExpr(num, den) if q is None else q


class RationalExpr:
    """A genuine quotient num/den of two Laurent polynomials, built by ``quotient``.

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

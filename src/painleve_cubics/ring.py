"""Exact Laurent-polynomial and rational-expression arithmetic over Q.

Every symbolic quantity in this package lives in a ring of named,
invertible generators with exact rational coefficients:

    poly  =  sum of   coeff * g1^e1 * g2^e2 * ...

stored as a dict mapping exponent tuples (one slot per registered
generator) to nonzero exact coefficients: an ``int`` when the value is
integral on construction, a ``Fraction`` otherwise, so products of
integral coefficients are plain integer arithmetic.  Reciprocals are built
as ``Fraction(1) / c``, since ``1 / c`` of an int is inexact.  No zero
coefficients are kept and terms carry a fixed graded-lexicographic order,
so equality is structural and printing is deterministic.

Convention for exponentiated coordinates: a generator named ``z`` stands
for e^{z/2}, so e^{z} is g_z^2 and e^{z/2} is g_z^1.  Under this
convention every exponent occurring in the catalogs is an integer.  The
single exception is the generator named ``eps``: it stands for the
confluence parameter itself and may carry half-integer exponents
produced by scalings like z -> z - log(eps).

``RationalExpr`` is a quotient num/den of two polynomials.  Quotients by
monomials collapse back into the Laurent ring during normalisation;
equality of genuine quotients is tested by cross-multiplication.  Exact
division (``divide_exact``) is lead-term division on one mutable remainder
dict whose graded-lex leading term comes from a heap with lazy deletion,
after Monagan & Pearce, "Polynomial division using dynamic arrays, heaps,
and packed exponent vectors" (CASC 2007).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class RingError(ValueError):
    """Raised on malformed ring operations (mixed contexts, bad exponents...)."""


def _q(x: Scalar) -> Scalar:
    """Normalise a scalar: integral Fractions become ints."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    if isinstance(x, int):
        return x
    raise RingError(f"non-exact scalar {x!r}")


def _scalar(x) -> Scalar:
    """An exact coefficient or exponent: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    return _q(x if type(x) is Fraction else Fraction(x))


def _div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a/b of two coefficients, an int when it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _q(Fraction(a, b))


def _eps_int(exps: tuple, i: int | None) -> tuple:
    """``exps`` with an integral Fraction in the eps column ``i`` made an int."""
    if i is None:
        return exps
    e = exps[i]
    if type(e) is int or e.denominator != 1:
        return exps
    return exps[:i] + (e.numerator,) + exps[i + 1:]


def _exact_root(n: int, k: int) -> int | None:
    """The k-th root of the positive integer ``n`` when it is an integer, else None."""
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) is at least the root
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s  # Newton's step from above stops at the floor of the root
    return r if r ** k == n else None


class Ring:
    """A context of named invertible generators.

    Polynomials from different Ring objects never mix; use
    ``LaurentPoly.cast`` to move between rings sharing generator names.
    The generator named ``eps``, if any, is the only one allowed
    non-integer exponents.
    """

    __slots__ = ("names", "index", "_zero", "_eps_index")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingError(f"duplicate generator names in {names}")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self._zero = (0,) * len(names)
        self._eps_index = self.index.get("eps")

    def __repr__(self) -> str:
        return f"Ring({', '.join(self.names)})"

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Ring) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    # -- constructors ------------------------------------------------

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return LaurentPoly(self, {self._zero: 1})

    def const(self, c: Scalar) -> "LaurentPoly":
        c = _scalar(c)
        return LaurentPoly(self, {self._zero: c} if c else {})

    def gen(self, name: str, power: Scalar = 1) -> "LaurentPoly":
        i = self.index.get(name)
        if i is None:
            raise RingError(f"generator {name!r} not in {self}")
        vec = self._zero[:i] + (_scalar(power),) + self._zero[i + 1:]
        self._check_exps(vec)
        return LaurentPoly(self, {vec: 1})

    def monomial(self, exps: Mapping[str, Scalar], coeff: Scalar = 1) -> "LaurentPoly":
        c = _scalar(coeff)
        if not c:
            return self.zero()
        vec = [0] * len(self.names)
        for name, e in exps.items():
            if name not in self.index:
                raise RingError(f"generator {name!r} not in {self}")
            vec[self.index[name]] = _scalar(e)
        self._check_exps(vec)
        return LaurentPoly(self, {tuple(vec): c})

    def e(self, halves: Mapping[str, Scalar], coeff: Scalar = 1) -> "LaurentPoly":
        """Monomial e^{sum c_z * z} on the g_z = e^{z/2} convention.

        The value for key ``z`` is the coefficient of z in the exponent of
        e, so the generator exponent is 2*c_z.
        """
        return self.monomial({n: 2 * _scalar(c) for n, c in halves.items()}, coeff)

    def poly(self, terms: Mapping[tuple, Scalar]) -> "LaurentPoly":
        out: dict = {}
        for exps, c in terms.items():
            vec = tuple(_scalar(e) for e in exps)
            if len(vec) != len(self.names):
                raise RingError("exponent tuple length mismatch")
            self._check_exps(vec)
            out[vec] = out.get(vec, 0) + _scalar(c)
        return LaurentPoly(self, {k: _q(v) for k, v in out.items() if v})

    def collect(self, sums: dict) -> "LaurentPoly":
        """Polynomial of term sums: zeros dropped, eps slot and integral coefficients made int.

        Equal keys merge in ``sums`` whatever the type of their eps slot
        (Fraction(2) hashes as 2), so only the kept keys need normalising.
        """
        i = self._eps_index
        return LaurentPoly(self, {_eps_int(e, i): c if type(c) is int else _q(c)
                                  for e, c in sums.items() if c})

    def _check_exps(self, vec: Sequence[Scalar]) -> None:
        for i, e in enumerate(vec):
            if not isinstance(e, int) and i != self._eps_index:
                raise RingError(
                    f"non-integer exponent {e} on generator {self.names[i]!r}"
                )


def _grlex_key(exps: tuple):
    return (sum(exps), exps)


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial over Q."""

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

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise RingError(f"not a constant: {self}")
        return self.terms.get(self.ring._zero, 0)

    def monomial_exps(self) -> tuple:
        if not self.is_monomial():
            raise RingError(f"not a monomial: {self}")
        return next(iter(self.terms))

    def num_terms(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def lead(self) -> tuple:
        """(exps, coeff) of the graded-lex leading term."""
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def support_names(self) -> list:
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e != 0:
                    used.add(i)
        return [self.ring.names[i] for i in sorted(used)]

    def content_exps(self) -> tuple:
        """Componentwise minimum exponent over the support (Laurent content)."""
        if not self.terms:
            raise RingError("zero polynomial has no content")
        cols = zip(*self.terms)
        return tuple(min(col) for col in cols) if self.ring.names else ()

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

    def __rsub__(self, other):
        return (-self) + other

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
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exps = tuple(map(add, e1, e2))
                out[exps] = get(exps, 0) + c1 * c2
        return self.ring.collect(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise RingError(f"exponent must be an integer, got {n!r}")
        if n < 0:
            if self.is_monomial():
                exps, c = next(iter(self.terms.items()))
                inv = LaurentPoly(self.ring, {tuple(map(neg, exps)): _q(Fraction(1) / c)})
                return inv ** (-n)
            return RationalExpr.from_poly(self) ** n
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
            return RationalExpr.from_poly(self) / other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalExpr(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return RationalExpr(other, self)

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
        i = self.ring.index[name]
        # lowering the exponent of one generator is injective on the terms
        return self.ring.collect({exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
                                  for exps, c in self.terms.items() if exps[i]})

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        vals = {}
        for name in self.support_names():
            if name not in point:
                raise RingError(f"no value given for generator {name!r}")
            v = Fraction(point[name])
            if v == 0:
                raise RingError(f"generators must evaluate to nonzero values ({name})")
            vals[self.ring.index[name]] = v
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if not isinstance(e, int):
                    raise RingError("cannot evaluate fractional exponents exactly")
                term *= vals[i] ** e
            total += term
        return total

    def cast(self, ring: Ring) -> "LaurentPoly":
        """Re-express in a ring containing (by name) every used generator."""
        if ring == self.ring:
            return self
        positions = []
        for i, name in enumerate(self.ring.names):
            positions.append(ring.index.get(name))
        out: dict = {}
        for exps, c in self.terms.items():
            vec = [0] * len(ring.names)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if positions[i] is None:
                    raise RingError(
                        f"generator {self.ring.names[i]!r} missing from {ring}"
                    )
                vec[positions[i]] = e
            key = tuple(vec)
            v = out.get(key, 0) + c
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
        return LaurentPoly(ring, out)

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, object], ring: Ring | None = None) -> "RationalExpr":
        """Substitute generators by expressions.

        ``images`` maps generator names to LaurentPoly / RationalExpr /
        GenImage values (all over one target ring); unmapped generators pass
        through unchanged and must exist in the target ring.  A GenImage of
        granularity k gives the image of g_name^k; occurrences whose exponent
        is not a multiple of k are an error, unless the image is a monomial.

        The sum stays in the Laurent ring as long as it can.  The image of
        each (generator, exponent) pair is computed once per call.  A term
        whose factors are all polynomials is multiplied out and its terms
        are added to one dict.  The other terms are summed per denominator:
        every image denominator is normalised (content 0, leading
        coefficient 1), and so is a product of them, so equal denominators
        have equal term tuples.  Each of those sums becomes one quotient,
        the first one with the polynomial part folded into its numerator.
        """
        norm: dict[str, GenImage] = {}
        target = ring
        for name, img in images.items():
            if name not in self.ring.index:
                raise RingError(f"substitution for unknown generator {name!r}")
            gi = img if isinstance(img, GenImage) else GenImage(as_expr(img))
            norm[name] = gi
            if target is None:
                target = gi.expr.ring
            elif gi.expr.ring != target:
                raise RingError("substitution images live in mixed ring contexts")
        if target is None:
            target = self.ring
        names = self.ring.names
        zero = target._zero

        def image_power(name: str, e: Scalar) -> tuple:
            """(numerator, denominator or None) of the image of g_name^e."""
            gi = norm.get(name)
            if gi is None:
                return target.gen(name, e), None
            if not isinstance(e, int) or e % gi.granularity != 0:
                if gi.expr.is_poly() and gi.expr.num.is_monomial():
                    return gi.monomial_root_power(e).num, None
                raise RingError("substitution requires half-power of non-monomial")
            p = gi.expr ** (e // gi.granularity)
            return p.num, None if p.den.is_one() else p.den

        powers: dict = {}
        polys: dict = {}
        quotients: dict = {}  # denominator terms -> (denominator, numerator sums)
        for exps, c in self.terms.items():
            num = den = None
            for i, e in enumerate(exps):
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
                total = RationalExpr(num + poly * den if poly.terms else num, den)
            else:
                total = total + RationalExpr(num, den)
        return RationalExpr.from_poly(poly) if total is None else total

    # -- epsilon bookkeeping -----------------------------------------------

    def _eps_column(self) -> int:
        i = self.ring._eps_index
        if i is None:
            raise RingError(f"{self.ring} has no epsilon generator")
        return i

    def epsilon_min_degree(self) -> Fraction:
        if not self.terms:
            raise RingError("no leading part: zero polynomial")
        i = self._eps_column()
        return Fraction(min(exps[i] for exps in self.terms))

    def epsilon_leading(self) -> tuple:
        """(min eps-degree, eps-free coefficient polynomial of that degree)."""
        if not self.terms:
            raise RingError("no leading part: zero polynomial")
        i = self._eps_column()
        d = min(exps[i] for exps in self.terms)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == d:
                vec = list(exps)
                vec[i] = 0
                out[tuple(vec)] = c
        return Fraction(d), LaurentPoly(self.ring, out)

    # -- printing / serialisation -------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.ring.names[i]
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = " * ".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag} * {mono}"
            sign = "-" if c < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    __str__ = to_text

    def __repr__(self) -> str:
        return f"<LaurentPoly {self.to_text()}>"

    def to_terms_json(self) -> list:
        out = []
        for exps, c in self.sorted_terms():
            entry = {"c": str(c), "e": {}}
            for i, e in enumerate(exps):
                if e != 0:
                    entry["e"][self.ring.names[i]] = str(e)
            out.append(entry)
        return out


class GenImage:
    """Substitution image of g_name^granularity (see LaurentPoly.substitute)."""

    __slots__ = ("expr", "granularity")

    def __init__(self, expr: "RationalExpr | LaurentPoly", granularity: int = 1):
        self.expr = as_expr(expr)
        if granularity < 1:
            raise RingError("granularity must be >= 1")
        self.granularity = granularity

    def monomial_root_power(self, e: Scalar) -> "RationalExpr":
        """Image of g_name^e when the image is a monomial (fractional powers ok)."""
        exps, c = next(iter(self.expr.num.terms.items()))
        ratio = Fraction(e) / self.granularity
        k = ratio.denominator
        roots = (c, 1) if k == 1 else [_exact_root(n, k) if c > 0 else None
                                       for n in (c.numerator, c.denominator)]
        if None in roots:
            raise RingError(f"monomial image coefficient {c} has no positive rational root of order {k}")
        ring = self.expr.num.ring
        vec = {ring.names[i]: e_i * ratio for i, e_i in enumerate(exps) if e_i != 0}
        return RationalExpr.from_poly(ring.monomial(vec, Fraction(*roots) ** ratio.numerator))


def as_expr(x) -> "RationalExpr":
    if isinstance(x, RationalExpr):
        return x
    if isinstance(x, LaurentPoly):
        return RationalExpr.from_poly(x)
    raise RingError(f"cannot interpret {x!r} as an expression")


def divide_exact(f: LaurentPoly, g: LaurentPoly):
    """Exact quotient f/g in the Laurent ring, or None when not divisible.

    Both arguments are reduced by their monomial content (units here), then
    ordinary multivariate lead-term division is run on one mutable remainder
    dict; a nonzero remainder means no quotient exists.  The quotient may
    carry fractional exponents on ``eps``, like its arguments.  The remainder's
    graded-lex leading term comes from a heap keyed by the negated order key.
    A key stays in the heap after its term cancels (lazy deletion) and is
    skipped when popped; a key is pushed again only when it re-enters the
    remainder.  Every step cancels the current leading term and adds only
    smaller ones, so no key is processed twice.
    """
    if g.is_zero():
        raise RingError("division by the zero polynomial")
    if f.is_zero():
        return f.ring.zero()
    if f.ring != g.ring:
        raise RingError("mixed ring contexts in divide_exact")
    eps = f.ring._eps_index
    cf, cg = f.content_exps(), g.content_exps()
    shift = tuple(map(sub, cf, cg))
    rem = {tuple(map(sub, e, cf)): c for e, c in f.terms.items()}
    gred = sorted(((tuple(map(sub, e, cg)), c) for e, c in g.terms.items()),
                  key=lambda t: _grlex_key(t[0]), reverse=True)
    (glead, glc), tail = gred[0], gred[1:]
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
    heapify(heap)
    quotient: dict = {}
    while rem:
        rexps = heappop(heap)[2]
        rc = rem.pop(rexps, None)
        if rc is None:
            continue
        diff = tuple(map(sub, rexps, glead))
        if min(diff, default=0) < 0:
            return None
        qc = _div(rc, glc)
        quotient[_eps_int(tuple(map(add, diff, shift)), eps)] = qc
        for ge, gc in tail:
            key = tuple(map(add, diff, ge))
            v = rem.get(key)
            if v is None:
                rem[key] = -qc * gc
                heappush(heap, (-sum(key), tuple(map(neg, key)), key))
            else:
                v -= qc * gc
                if v:
                    rem[key] = v
                else:
                    del rem[key]
    return LaurentPoly(f.ring, quotient)


class RationalExpr:
    """Quotient of two Laurent polynomials, normalised on construction.

    Monomial denominators (units of the Laurent ring) are folded into the
    numerator, and exactly-divisible denominators cancel, so ``den`` is 1
    whenever the quotient is actually a Laurent polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if num.ring is not den.ring and num.ring != den.ring:
            raise RingError("numerator/denominator ring mismatch")
        if den.is_zero():
            raise RingError("zero denominator")
        if den.is_one():
            self.num, self.den = num, den
            return
        ring = num.ring
        if num.is_zero():
            self.num, self.den = num, ring.one()
            return
        if den.is_monomial():
            self.num, self.den = num * den ** -1, ring.one()
            return
        q = divide_exact(num, den)
        if q is not None:
            self.num, self.den = q, ring.one()
            return
        cd = den.content_exps()
        unit = LaurentPoly(ring, {tuple(map(neg, cd)): 1})
        num = num * unit
        den = den * unit
        _, lc = den.lead()
        if lc != 1:
            inv = ring.const(Fraction(1) / lc)
            num = num * inv
            den = den * inv
        self.num, self.den = num, den

    @property
    def ring(self) -> Ring:
        return self.num.ring

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalExpr":
        return RationalExpr(p, p.ring.one())

    def is_poly(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> LaurentPoly:
        if not self.is_poly():
            raise RingError(f"not a Laurent polynomial: denominator {self.den}")
        return self.num

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RationalExpr":
        if isinstance(other, RationalExpr):
            return other
        if isinstance(other, LaurentPoly):
            return RationalExpr.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RationalExpr.from_poly(self.ring.const(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalExpr(self.num + other.num, self.den)
        return RationalExpr(self.num * other.den + other.num * self.den, self.den * other.den)

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
        if self.den.is_one() and other.den.is_one():
            return RationalExpr(self.num * other.num, self.den)
        return RationalExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise RingError("division by zero expression")
        if self.den.is_one() and other.den.is_one():
            return RationalExpr(self.num, other.num)
        return RationalExpr(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise RingError("exponent must be an integer")
        if n == 0:
            return RationalExpr.from_poly(self.ring.one())
        if n < 0:
            if self.is_zero():
                raise RingError("negative power of zero")
            return RationalExpr(self.den, self.num) ** (-n)
        if self.den.is_one():
            return RationalExpr(self.num ** n, self.den)
        return RationalExpr(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise RingError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / d

    def substitute(self, images: Mapping[str, object], ring: Ring | None = None) -> "RationalExpr":
        num = self.num.substitute(images, ring)
        den = self.den.substitute(images, ring)
        return num / den

    def cast(self, ring: Ring) -> "RationalExpr":
        return RationalExpr(self.num.cast(ring), self.den.cast(ring))

    def constant_value(self) -> Fraction:
        if not self.is_poly():
            raise RingError(f"not constant: {self}")
        return self.num.constant_value()

    def to_text(self) -> str:
        if self.is_poly():
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    __str__ = to_text

    def __repr__(self) -> str:
        return f"<RationalExpr {self.to_text()}>"

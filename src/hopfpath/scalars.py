"""Exact arithmetic in cyclotomic fields Q(zeta_N) and q-combinatorics.

A Scalar is an element of Q(zeta_N), stored in the power basis
1, z, ..., z^(phi(N)-1) of a primitive N-th root of unity z, reduced
modulo the N-th cyclotomic polynomial.  Its coordinates are int
numerators over one positive int denominator, normalized so that the
denominator is coprime to the numerators (Cohen, "A Course in
Computational Algebraic Number Theory", 1993, section 4.2).  Reduction
modulo the cyclotomic polynomial (not x^N - 1) and the normalized
denominator make the representation canonical, so zero-testing and
equality are decisive.

Sums, differences and products take a closed form in the fields of
degree 1 (N = 1, 2: Q itself) and degree 2 (N = 3, 4, 6), where the
minimal polynomial is x^2 + m1 x + m0 and so z^2 = -m0 - m1 z; fields
of degree 4 and up map over the coordinates of a sum, and convolve the
coordinates of a product and fold the result with the context's rows
for z^d, z^(d+1), ...

There is no floating point anywhere: every operation is exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import add as _add, sub as _sub

__all__ = [
    "CyclotomicContext",
    "MAX_CONDUCTOR",
    "Scalar",
    "conductor_for",
    "cyclotomic_context",
    "cyclotomic_polynomial",
    "root_of_unity",
    "order",
    "q_int",
    "q_factorial",
    "gauss_binom",
    "gauss_binom_row",
    "binom_vanishes",
    "parse_rational",
    "parse_scalar",
]


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _totient(n):
    count = 0
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            count += 1
    return count


def _poly_div_exact(num, den):
    """Divide integer polynomials (ascending coefficients), den monic.

    The division must be exact; used only to peel cyclotomic factors
    off x^n - 1.
    """
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for t, dc in enumerate(den):
                num[k + t] -= c * dc
    if any(num[:dd]):
        raise ArithmeticError("polynomial division was not exact")
    return out


MAX_CONDUCTOR = 1000
"""Largest conductor N that ``CyclotomicContext`` accepts.

Building Q(zeta_N) computes the N-th cyclotomic polynomial by exact
division of x^N - 1, and every product folds through phi(N) tail rows,
so the cost grows with N before any check is made.  The classified
families need only small N (the lcm of the cycle length and the order
of q); 1000 keeps every order up to 8 (lcm(1..8) = 840).  Without a
bound, N = 100000 did not finish building and lcm(1..100) overflowed
an index.
"""


def conductor_for(orders):
    """The lcm of the nonzero ``orders`` (1 when there are none), the
    least conductor whose field holds a root of unity of each order.

    It is folded one order at a time, and the first order that takes it
    past MAX_CONDUCTOR raises ValueError naming that order, so a long
    list of orders (all of 1..100000) costs a few steps, not an lcm of
    thousands of digits.
    """
    lcm = 1
    for order in orders:
        if order:
            lcm = math.lcm(lcm, order)
            if lcm > MAX_CONDUCTOR:
                raise ValueError(
                    f"the lcm of the requested orders exceeds the maximum "
                    f"conductor {MAX_CONDUCTOR} at order {order}")
    return lcm


def _check_conductor(conductor):
    if not isinstance(conductor, int) or conductor < 1:
        raise ValueError("conductor must be a positive integer")
    if conductor > MAX_CONDUCTOR:
        raise ValueError(f"conductor {conductor} exceeds the maximum "
                         f"{MAX_CONDUCTOR}")


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    _check_conductor(n)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CyclotomicContext:
    """Shared, immutable arithmetic context for Q(zeta_N).

    Prefer the cached factory ``cyclotomic_context(N)``; contexts with
    equal conductor are interchangeable.
    """

    def __init__(self, conductor):
        _check_conductor(conductor)
        self.N = conductor
        self.minpoly = cyclotomic_polynomial(conductor)
        self.degree = len(self.minpoly) - 1
        assert self.degree == _totient(conductor)
        # Integer coordinates of z^(degree + t) for t = 0 .. degree - 2,
        # used to fold products back into the power basis; the minimal
        # polynomial is monic over Z, so no denominator appears.
        self._tails = self._tail_rows()
        # (m0, m1), the two lowest coefficients of the minimal
        # polynomial: in degree 2 it is x^2 + m1 x + m0, and
        # ``Scalar.__mul__`` folds z^2 = -m0 - m1 z in closed form
        self._m0, self._m1 = self.minpoly[:2]
        self._pad = (0,) * (self.degree - 1)
        self._zero = Scalar(self, (0,) * self.degree)
        self._one = Scalar(self, (1,) + self._pad)

    def _tail_rows(self):
        d = self.degree
        rows = []
        # z^d = -(minpoly without leading coefficient)
        prev = [-c for c in self.minpoly[:d]]
        rows.append(tuple(prev))
        for _ in range(d - 2):
            shifted = [0] + prev[: d - 1]
            top = prev[d - 1]
            if top:
                for t in range(d):
                    shifted[t] += top * rows[0][t]
            prev = shifted
            rows.append(tuple(prev))
        return rows

    def __eq__(self, other):
        return isinstance(other, CyclotomicContext) and self.N == other.N

    def __hash__(self):
        return hash(("CyclotomicContext", self.N))

    def __repr__(self):
        return f"CyclotomicContext(N={self.N}, degree={self.degree})"

    # -- construction -----------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_rational(self, value):
        """The rational ``value``: an int (a bool included), a Fraction or
        the text of a rational.  Anything else, a float, a Decimal, a
        complex or None, raises ValueError naming it, so that no
        floating-point value is silently made exact."""
        if type(value) is int:
            if value == 1:
                return self._one
            return Scalar(self, (value,) + self._pad)
        if isinstance(value, str):
            value = parse_rational(value)
        elif not isinstance(value, (int, Fraction)):
            raise ValueError(f"{value!r} is not an exact rational: give an "
                             f"int, a Fraction or text")
        v = Fraction(value)
        return Scalar(self, (v.numerator,) + self._pad, v.denominator)

    def zeta(self):
        """The distinguished primitive N-th root of unity."""
        if self.degree == 1:
            # z is congruent to a rational modulo a degree-1 minimal
            # polynomial (N = 1 or 2).
            return self.from_rational(-self.minpoly[0])
        num = [0] * self.degree
        num[1] = 1
        return Scalar(self, tuple(num))

    def scalar(self, value):
        """Coerce an int, Fraction, Scalar or text rendering to a Scalar;
        any other value raises ValueError (``from_rational``)."""
        if isinstance(value, Scalar):
            if value.ctx is not self and value.ctx != self:
                raise ValueError("scalar belongs to a different context")
            return value
        if isinstance(value, str):
            return parse_scalar(self, value)
        return self.from_rational(value)

    def _reduce(self, conv):
        """Fold a raw integer product (a list of length <= 2*degree-1)
        into the power basis."""
        d = self.degree
        out = conv[:d] + [0] * (d - len(conv))
        tails = self._tails
        for e in range(d, len(conv)):
            c = conv[e]
            if c:
                row = tails[e - d]
                for t in range(d):
                    out[t] += c * row[t]
        return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_context(conductor):
    return CyclotomicContext(conductor)


class Scalar:
    """An element of Q(zeta_N), exact and immutable.

    The value is (num[0] + num[1] z + ... + num[d-1] z^(d-1)) / den with
    int numerators and one int denominator.  The constructor normalizes
    the pair: den > 0 and gcd(den, *num) == 1, so zero is (0, ..., 0)/1
    and equal values have equal ``num``, ``den`` and hash.
    """

    __slots__ = ("ctx", "num", "den", "_hash")

    def __init__(self, ctx, num, den=1):
        if den != 1:
            if den <= 0:
                if not den:
                    raise ZeroDivisionError("zero denominator in Q(zeta_N)")
                num = tuple([-c for c in num])
                den = -den
            g = math.gcd(den, *num)
            if g != 1:
                num = tuple([c // g for c in num])
                den //= g
        self.ctx = ctx
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coeffs(self):
        """Power-basis coordinates as a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("scalars from different cyclotomic contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def __add__(self, other):
        """The sum; over equal denominators it is formed coordinate by
        coordinate, in closed form when the field has degree <= 2.

        Over one denominator the sum (or difference, ``__sub__``) of
        (a0 + a1 z)/d and (b0 + b1 z)/d is ((a0 + b0) + (a1 + b1) z)/d,
        one coordinate fewer in degree 1; higher degrees map over the
        coordinates.  Unequal denominators cross-multiply.  Every result
        goes through the normalizing constructor, so 1/2 + 1/2 is 1/1
        and a sum that cancels has the context zero's (0, ..., 0)/1.
        """
        if type(other) is Scalar and other.ctx is self.ctx:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        ctx, da = self.ctx, self.den
        if da == o.den:
            degree = ctx.degree
            if degree == 2:
                a0, a1 = self.num
                b0, b1 = o.num
                return Scalar(ctx, (a0 + b0, a1 + b1), da)
            if degree == 1:
                return Scalar(ctx, (self.num[0] + o.num[0],), da)
            return Scalar(ctx, tuple(map(_add, self.num, o.num)), da)
        db = o.den
        return Scalar(ctx, tuple([x * db + y * da for x, y
                                  in zip(self.num, o.num)]), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        """The difference, formed as ``__add__`` forms the sum."""
        if type(other) is Scalar and other.ctx is self.ctx:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        ctx, da = self.ctx, self.den
        if da == o.den:
            degree = ctx.degree
            if degree == 2:
                a0, a1 = self.num
                b0, b1 = o.num
                return Scalar(ctx, (a0 - b0, a1 - b1), da)
            if degree == 1:
                return Scalar(ctx, (self.num[0] - o.num[0],), da)
            return Scalar(ctx, tuple(map(_sub, self.num, o.num)), da)
        db = o.den
        return Scalar(ctx, tuple([x * db - y * da for x, y
                                  in zip(self.num, o.num)]), da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar(self.ctx, tuple([-c for c in self.num]), self.den)

    def __mul__(self, other):
        """The product, in closed form when the field has degree <= 2.

        Degree 1 (N = 1, 2) multiplies the one numerator.  Degree 2
        (N = 3, 4, 6) has minimal polynomial x^2 + m1 x + m0, so
        z^2 = -m0 - m1 z and
        (a0 + a1 z)(b0 + b1 z)
            = (a0 b0 - m0 a1 b1) + (a0 b1 + a1 b0 - m1 a1 b1) z.
        Higher degrees convolve the coordinates and fold the product
        back with ``CyclotomicContext._reduce``.  In every degree a
        rational factor scales the other operand's coordinates (the
        unit 1 hands the other operand back, 0 gives zero), and every
        new result goes through the normalizing constructor.
        """
        if type(other) is Scalar and other.ctx is self.ctx:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        ctx = self.ctx
        a, b = self.num, o.num
        degree = ctx.degree
        if degree == 1:
            a0, = a
            b0, = b
            if a0 == 1 and self.den == 1:
                return o
            if b0 == 1 and o.den == 1:
                return self
            return Scalar(ctx, (a0 * b0,), self.den * o.den)
        if degree == 2:
            a0, a1 = a
            b0, b1 = b
            if not a1:
                if not a0:
                    return ctx._zero
                if a0 == 1 and self.den == 1:
                    return o
                return Scalar(ctx, (a0 * b0, a0 * b1), self.den * o.den)
            if not b1:
                if not b0:
                    return ctx._zero
                if b0 == 1 and o.den == 1:
                    return self
                return Scalar(ctx, (a0 * b0, a1 * b0), self.den * o.den)
            t = a1 * b1
            return Scalar(ctx, (a0 * b0 - ctx._m0 * t,
                                a0 * b1 + a1 * b0 - ctx._m1 * t),
                          self.den * o.den)
        den = self.den * o.den
        # rational factors scale coordinates directly
        if not any(a[1:]):
            r = a[0]
            if not r:
                return ctx._zero
            if r == 1 and self.den == 1:
                return o
            return Scalar(ctx, tuple([r * c for c in b]), den)
        if not any(b[1:]):
            r = b[0]
            if not r:
                return ctx._zero
            if r == 1 and o.den == 1:
                return self
            return Scalar(ctx, tuple([r * c for c in a]), den)
        conv = [0] * (2 * ctx.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    if bj:
                        conv[k] += ai * bj
        return Scalar(ctx, ctx._reduce(conv), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.ctx.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        """Exact inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        ctx = self.ctx
        # Extended Euclid in Q[x] against the (irreducible) minimal
        # polynomial: s*num + t*minpoly = 1, so den*s is the inverse.
        r0 = [Fraction(c) for c in ctx.minpoly]
        r1 = [Fraction(c) for c in self.num]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                scale = self.den / r1[0]
                coeffs = [c * scale for c in s1]
                den = math.lcm(*(c.denominator for c in coeffs))
                num = [c.numerator * (den // c.denominator) for c in coeffs]
                num += [0] * (ctx.degree - len(num))
                return Scalar(ctx, ctx._reduce(num[: 2 * ctx.degree - 1]),
                              den)
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (other.ctx is self.ctx or other.ctx.N == self.ctx.N) \
                and self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other \
                and self.is_rational()
        if isinstance(other, Fraction):
            return self.num[0] == other.numerator \
                and self.den == other.denominator and self.is_rational()
        return NotImplemented

    def __hash__(self):
        # CPython hashes -1 as -2, so coordinates -1 and -2 would collide;
        # doubling keeps every small coordinate's hash distinct
        if self._hash is None:
            self._hash = hash((self.ctx.N, self.den,
                               *[c + c for c in self.num]))
        return self._hash

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"Scalar({scalar_to_str(self)!r}, N={self.ctx.N})"


def _poly_divmod(num, den):
    num = list(num)
    den = list(den)
    while den and not den[-1]:
        den.pop()
    dd = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] / lead
        q[k] = c
        if c:
            for t, dc in enumerate(den):
                num[k + t] -= c * dc
    return q, num[:dd] if dd else [Fraction(0)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# -- rendering and parsing -------------------------------------------------

def scalar_to_str(x):
    """Render as a polynomial in z with rational coefficients."""
    parts = []
    for e, c in enumerate(x.coeffs):
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            zpart = "z" if e == 1 else f"z^{e}"
            body = zpart if mag == 1 else f"{mag}*{zpart}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# the one rational literal of the package, read by ``parse_rational``
# and as a coefficient of ``parse_scalar``, both of which drop spaces
# first: an integer, a fraction a/b, or a decimal with an optional
# exponent (``0.5``, ``.25``, ``1e3``)
_RATIONAL = r"(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
_RATIONAL_RE = re.compile(r"[+-]?" + _RATIONAL)
_TERM_RE = re.compile(
    r"^(?P<coeff>[+-]?(?:" + _RATIONAL
    + r")?)(?:(?<=[\d.])\*)?(?P<z>z(?:\^(?P<exp>[+-]?\d+))?)?$"
)
# a sign starts a new term unless it follows ``^``, the sign of an
# exponent or a decimal's ``e``, so that a malformed exponent such as
# ``z^+-1`` stays whole and ``1e-3`` is one coefficient
_NOT_IN_EXPONENT = r"(?<!\^)(?<!\^[+-])(?<![\d.][eE])"
_TERM_SIGN_RE = re.compile(_NOT_IN_EXPONENT + "-")
_TERM_SPLIT_RE = re.compile(_NOT_IN_EXPONENT + r"\+")


def parse_rational(text):
    """The rational of a literal in the one grammar above; anything
    else, and a zero denominator, is a ValueError naming the literal."""
    compact = text.replace(" ", "")
    if not _RATIONAL_RE.fullmatch(compact):
        raise ValueError(f"cannot parse rational {text!r}")
    try:
        return Fraction(compact)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def parse_scalar(ctx, text):
    """Parse the grammar produced by scalar_to_str (signs, rationals, z^k).

    Exponents may carry a sign (``z^-1``, ``z^+1`` = ``z``): a sign
    starts a new term unless it follows ``^``.  A malformed term is named
    whole in the error.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty scalar text")
    compact = _TERM_SIGN_RE.sub("+-", compact)
    total = ctx.zero()
    seen = False
    for chunk in _TERM_SPLIT_RE.split(compact):
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m or not (m.group("z") or m.group("coeff").lstrip("-")):
            raise ValueError(f"cannot parse scalar term {chunk!r}")
        coeff = m.group("coeff")
        if coeff in (None, "", "-", "+"):
            value = Fraction(-1 if coeff == "-" else 1)
        else:
            try:
                value = Fraction(coeff)
            except ZeroDivisionError:
                raise ValueError(
                    f"zero denominator in scalar {text!r}") from None
        term = ctx.from_rational(value)
        if m.group("z"):
            exp = int(m.group("exp") or 1)
            term = term * ctx.zeta() ** exp
        total = total + term
        seen = True
    if not seen:
        raise ValueError(f"cannot parse scalar {text!r}")
    return total


# -- roots of unity ----------------------------------------------------------

def root_of_unity(ctx, m):
    """A primitive m-th root of unity in Q(zeta_N); requires m | N."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    if ctx.N % m != 0:
        raise ValueError("order not representable in this context")
    if m == 1:
        return ctx.one()
    return ctx.zeta() ** (ctx.N // m)


def order(x):
    """Multiplicative order of x, or None when no power returns to 1.

    Every root of unity in Q(zeta_N) has order dividing lcm(2, N), so
    only those exponents are searched.
    """
    if x.is_zero():
        raise ValueError("order of zero undefined")
    one = x.ctx.one()
    for t in _divisors(math.lcm(2, x.ctx.N)):
        if x ** t == one:
            return t
    return None


# -- Gaussian binomials ------------------------------------------------------

def q_int(l, q):
    """1 + q + ... + q^(l-1); zero for l = 0."""
    total = q.ctx.zero()
    power = q.ctx.one()
    for _ in range(l):
        total = total + power
        power = power * q
    return total


def q_factorial(l, q):
    """Product of the q-integers 1..l; the empty product for l = 0."""
    total = q.ctx.one()
    for t in range(1, l + 1):
        total = total * q_int(t, q)
    return total


def _grow_q_pascal(rows, powers, q, n):
    """Extend ``rows``, the q-Pascal rows 0 .. len(rows) - 1 for q (row 0
    at least), through row n in place, each new row from the last by
    binom(m, k) = binom(m-1, k-1) + q^k * binom(m-1, k); ``powers``
    holds q^0, q^1, ... and is extended as the rows need."""
    one = q.ctx.one()
    for m in range(len(rows), n + 1):
        if len(powers) < m:
            powers.append(powers[-1] * q)
        prev = rows[-1]
        row = [one]
        for k in range(1, m):
            row.append(prev[k - 1] + powers[k] * prev[k])
        row.append(one)
        rows.append(row)


def gauss_binom_row(n, q):
    """Row n of the q-Pascal triangle for q, as a list of Scalars."""
    one = q.ctx.one()
    rows = [[one]]
    _grow_q_pascal(rows, [one], q, n)
    return rows[n]


def gauss_binom(n, k, q):
    """Gaussian binomial coefficient via the division-free Pascal recurrence.

    The recurrence binom(n,k) = binom(n-1,k-1) + q^k * binom(n-1,k)
    avoids the factorial quotient, which degenerates to 0/0 at roots of
    unity.  Where the quotient is defined the two agree.
    """
    if k < 0 or k > n:
        raise ValueError("binomial index out of range")
    return gauss_binom_row(n, q)[k]


def binom_vanishes(l, m, d):
    """Vanishing test for binom(l+m, l) at a root of unity of order d.

    True iff floor((l+m)/d) - floor(m/d) - floor(l/d) > 0.
    """
    if d < 2:
        raise ValueError("criterion requires nontrivial root of unity")
    return (l + m) // d - m // d - l // d > 0

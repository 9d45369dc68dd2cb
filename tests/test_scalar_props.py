"""Property tests of the integer-coordinate scalars against a Fraction
reference: field axioms, the arithmetic itself, inverses, the text round
trip and the normalization that makes equality decisive."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from hopfpath import cyclotomic_context, parse_scalar
from hopfpath.scalars import MAX_CONDUCTOR, CyclotomicContext, Scalar

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12)


# -- reference: Fraction coordinates, product reduced by long division -----

def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(ctx, a, b):
    """Power-basis product of coordinate tuples, reduced modulo the
    minimal polynomial by dividing from the top degree down."""
    d = ctx.degree
    conv = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    minpoly = ctx.minpoly  # monic, degree d
    for e in range(2 * d - 2, d - 1, -1):
        c = conv[e]
        for t in range(d + 1):
            conv[e - d + t] -= c * minpoly[t]
        assert conv[e] == 0
    return tuple(conv[:d])


def build(ctx, coords, scale=1):
    """The scalar with these Fraction coordinates, handed to the
    constructor over a common denominator times ``scale``."""
    den = math.lcm(*(c.denominator for c in coords)) * scale
    return Scalar(ctx, tuple(int(c * den) for c in coords), den)


# -- strategies ---------------------------------------------------------------

coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _vectors(n, count):
    d = cyclotomic_context(n).degree
    vec = st.lists(coords, min_size=d, max_size=d).map(tuple)
    return st.tuples(st.just(cyclotomic_context(n)),
                     *([vec] * count))


def cases(count):
    return st.sampled_from(CONDUCTORS).flatmap(lambda n: _vectors(n, count))


def _normalized(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1 \
        and (x.den == 1 or any(x.num))


# -- construction ---------------------------------------------------------------

@given(cases(1), st.sampled_from((1, 2, 3, 6, -1, -4)))
def test_constructor_normalizes(case, scale):
    ctx, a = case
    x = build(ctx, a, scale)
    assert _normalized(x)
    assert x.coeffs == a
    assert x == build(ctx, a) and hash(x) == hash(build(ctx, a))
    assert x.is_zero() == (not any(a))


def test_zero_has_denominator_one():
    ctx = cyclotomic_context(12)
    zero = Scalar(ctx, (0, 0, 0, 0), 7)
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    assert zero == ctx.zero() and hash(zero) == hash(ctx.zero())
    with pytest.raises(ZeroDivisionError):
        Scalar(ctx, (1, 0, 0, 0), 0)


# -- arithmetic against the reference --------------------------------------------

@given(cases(2))
def test_add_sub_mul_match_the_reference(case):
    ctx, a, b = case
    x, y = build(ctx, a), build(ctx, b)
    for value, expected in ((x + y, ref_add(a, b)), (x - y, ref_sub(a, b)),
                            (x * y, ref_mul(ctx, a, b)),
                            (-x, tuple(-c for c in a))):
        assert value.coeffs == expected
        assert _normalized(value)


@given(cases(3))
def test_field_axioms(case):
    ctx, a, b, c = case
    x, y, z = build(ctx, a), build(ctx, b), build(ctx, c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ctx.zero() == x and x * ctx.one() == x
    assert (x - x).is_zero() and x + (-x) == ctx.zero()
    assert (x * ctx.zero()).is_zero()


@given(cases(1))
def test_inverse(case):
    ctx, a = case
    x = build(ctx, a)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert _normalized(inv)
    assert x * inv == 1 and inv * x == ctx.one()
    assert ref_mul(ctx, a, inv.coeffs) == ctx.one().coeffs


@given(cases(1))
def test_text_round_trip(case):
    ctx, a = case
    x = build(ctx, a)
    assert parse_scalar(ctx, str(x)) == x


# -- one value, one representation ------------------------------------------------

@given(cases(2))
def test_equal_values_built_by_different_routes(case):
    ctx, a, b = case
    x, y = build(ctx, a), build(ctx, b)
    for other in ((x + y) - y, (x - y) + y, -(-x), x * ctx.one(),
                  y + x - y):
        assert (other.num, other.den) == (x.num, x.den)
        assert other == x and hash(other) == hash(x)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_rational_routes(n):
    ctx = cyclotomic_context(n)
    half = ctx.from_rational(Fraction(1, 2))
    for value in (half * 2, half + half, 2 * half, ctx.scalar("1/2") * 2,
                  ctx.from_rational(Fraction(3, 3))):
        assert (value.num, value.den) == (ctx.one().num, 1)
        assert value == 1 and value == Fraction(1) and value == ctx.one()
        assert hash(value) == hash(ctx.one())
    assert half == Fraction(1, 2) and half != 1
    assert half.rational_value() == Fraction(1, 2)
    third = ctx.from_rational(Fraction(-2, 6))
    assert (third.num[0], third.den) == (-1, 3)


# -- the conductor bound ------------------------------------------------------------

def test_conductor_bound():
    assert cyclotomic_context(840).degree == 192
    with pytest.raises(ValueError, match="exceeds the maximum"):
        cyclotomic_context(MAX_CONDUCTOR + 1)
    with pytest.raises(ValueError, match="exceeds the maximum"):
        cyclotomic_context(math.lcm(*range(1, 101)))


# -- the closed-form products of degree 1 and 2 ---------------------------------

CLOSED_FORM = (1, 2, 3, 4, 6)

# chain-q1 coefficients reach 4.7e14, so the coordinates go past them
wide = st.one_of(st.just(0), st.just(1), st.just(-1),
                 st.integers(-10 ** 15, 10 ** 15))
wide_coords = st.builds(Fraction, wide, st.integers(1, 10 ** 6))


def _wide_vectors(n):
    d = cyclotomic_context(n).degree
    return st.lists(wide_coords, min_size=d, max_size=d).map(tuple)


wide_cases = st.sampled_from(CLOSED_FORM).flatmap(
    lambda n: st.tuples(st.just(cyclotomic_context(n)), _wide_vectors(n),
                        _wide_vectors(n)))


@given(wide_cases)
def test_closed_form_products_match_the_reference(case):
    ctx, a, b = case
    x, y = build(ctx, a), build(ctx, b)
    for left, right, expected in ((x, y, ref_mul(ctx, a, b)),
                                  (y, x, ref_mul(ctx, b, a))):
        value = left * right
        assert value.coeffs == expected
        assert _normalized(value)


@given(wide_cases, st.sampled_from((Fraction(1), Fraction(0), Fraction(-1),
                                    Fraction(1, 2), Fraction(10 ** 15, 7))))
def test_closed_form_rational_factors_on_either_side(case, r):
    ctx, a, _ = case
    x, s = build(ctx, a), ctx.from_rational(r)
    expected = tuple(r * c for c in a)
    for value in (x * s, s * x, x * r, r * x):
        assert value.coeffs == expected
        assert _normalized(value)
    if r == 1 and x != 1 and (ctx.degree == 1 or not x.is_rational()):
        # a unit factor hands back the other operand itself
        assert x * s is x and s * x is x
    if r == 0:
        assert (x * s).num == ctx.zero().num and (x * s).den == 1


# -- the products against the convolution they replaced ---------------------------

def conv_mul(x, y):
    """The product as every degree formed it before degrees 1 and 2 took
    a closed form: convolve the integer coordinates, then fold each
    power z^e with e >= d back through the context's row for it."""
    ctx = x.ctx
    d = ctx.degree
    a, b = x.num, y.num
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                if bj:
                    conv[k] += ai * bj
    out = conv[:d]
    for e in range(d, len(conv)):
        c = conv[e]
        if c:
            row = ctx._tails[e - d]
            for t in range(d):
                out[t] += c * row[t]
    return Scalar(ctx, tuple(out), x.den * y.den)


def _grid(ctx, values, dens):
    return [Scalar(ctx, num, den)
            for num in product(values, repeat=ctx.degree) for den in dens]


@pytest.mark.parametrize("n, values, dens",
                         [(n, range(-2, 3), (1, 2, 3)) for n in CLOSED_FORM]
                         + [(n, range(-1, 2), (1, 2)) for n in (5, 8, 12)])
def test_products_agree_with_the_convolution_on_a_grid(n, values, dens):
    ctx = cyclotomic_context(n)
    grid = [Scalar(ctx, num, den)
            for num in product(values, repeat=ctx.degree) for den in dens]
    for x in grid:
        for y in grid:
            value, before = x * y, conv_mul(x, y)
            assert (value.num, value.den) == (before.num, before.den)
            assert hash(value) == hash(before)


# -- the closed-form sums and differences -----------------------------------------

# the closed-form fields and one of degree 4, whose sums map over the
# coordinates
SUM_FIELDS = CLOSED_FORM + (5,)
DENS = (1, 2, 3, 6, 10 ** 6)


def ref_sum(x, y, sign):
    """x + sign * y coordinate by coordinate in Fractions, handed to the
    normalizing constructor."""
    return build(x.ctx, tuple(a + sign * b
                              for a, b in zip(x.coeffs, y.coeffs)))


def _numerators(n):
    d = cyclotomic_context(n).degree
    return st.lists(wide, min_size=d, max_size=d).map(tuple)


# y over x's denominator (None) or its own, so that both branches run
sum_cases = st.sampled_from(SUM_FIELDS).flatmap(
    lambda n: st.tuples(st.just(cyclotomic_context(n)), _numerators(n),
                        _numerators(n), st.sampled_from(DENS),
                        st.sampled_from((None,) + DENS)))


def _same_scalar(value, expected):
    assert (value.num, value.den) == (expected.num, expected.den)
    assert hash(value) == hash(expected) and value == expected
    assert _normalized(value)


@given(sum_cases)
def test_closed_form_sums_match_the_reference(case):
    ctx, a, b, da, db = case
    x, y = Scalar(ctx, a, da), Scalar(ctx, b, da if db is None else db)
    for left, right in ((x, y), (y, x), (x, x), (x, -x)):
        _same_scalar(left + right, ref_sum(left, right, 1))
        _same_scalar(left - right, ref_sum(left, right, -1))


@pytest.mark.parametrize("n", SUM_FIELDS)
def test_sums_that_normalize_or_cancel(n):
    ctx = cyclotomic_context(n)
    z, zero, one = ctx.zeta(), ctx.zero(), ctx.one()
    half = ctx.from_rational(Fraction(1, 2))
    _same_scalar(half + half, one)
    _same_scalar(z / 6 + z / 6, z / 3)
    _same_scalar((z + 1) / 4 + (z - 1) / 4, z / 2)
    _same_scalar(one - half, half)
    for x in (half, z / 2, 3 * z - 5, (z + 7) / 10 ** 6, -z):
        for value in (x - x, x + (-x), -x + x):
            _same_scalar(value, zero)
            assert value.num == zero.num and value.den == 1


@pytest.mark.parametrize("n, values, dens",
                         [(n, range(-2, 3), (1, 2, 3)) for n in CLOSED_FORM]
                         + [(5, range(-1, 2), (1, 2))])
def test_sums_agree_with_the_reference_on_a_grid(n, values, dens):
    ctx = cyclotomic_context(n)
    grid = _grid(ctx, values, dens)
    for x in grid:
        for y in grid:
            _same_scalar(x + y, ref_sum(x, y, 1))
            _same_scalar(x - y, ref_sum(x, y, -1))


@pytest.mark.parametrize("n", SUM_FIELDS)
def test_equality_within_a_context_agrees_with_an_equal_context(n):
    # the same context object is recognised by identity; an equal context
    # built anew is recognised by its conductor, and must agree
    ctx, twin = cyclotomic_context(n), CyclotomicContext(n)
    other = cyclotomic_context(7)
    grid = _grid(ctx, range(-1, 2), (1, 2))
    for x in grid:
        for y in grid:
            expected = (x.num, x.den) == (y.num, y.den)
            assert (x == y) is expected and (x != y) is not expected
            y_twin = Scalar(twin, y.num, y.den)
            assert (x == y_twin) is expected and (y_twin == x) is expected
        # another conductor never compares equal, even on a rational
        assert x != Scalar(other, x.num[:1] + (0,) * (other.degree - 1),
                           x.den)
        assert (x == x.num[0]) is (x.den == 1 and x.is_rational())
        assert (x == Fraction(x.num[0], x.den)) is x.is_rational()

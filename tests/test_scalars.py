import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from hopfpath import (
    Lin, binom_vanishes, cycle_deform, cycle_path, cyclotomic_context,
    cyclotomic_polynomial, gauss_binom, gauss_binom_row, order,
    parse_scalar, q_factorial, q_int, root_of_unity,
)
from hopfpath.scalars import conductor_for, parse_rational


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_context_degree_is_totient():
    for n, phi in [(1, 1), (2, 1), (3, 2), (8, 4), (9, 6), (12, 4), (15, 8)]:
        assert cyclotomic_context(n).degree == phi


def _pool(ctx):
    z = ctx.zeta()
    half = ctx.from_rational(Fraction(1, 2))
    return [ctx.one(), -ctx.one(), ctx.from_rational(3), half, z, z * z,
            z + ctx.one(), z - half]


@pytest.mark.parametrize("conductor", [1, 2, 4, 5, 12])
def test_field_axioms(conductor):
    ctx = cyclotomic_context(conductor)
    pool = _pool(ctx)
    for a, b, c in product(pool, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    for a in pool:
        if not a.is_zero():
            assert a * a.inverse() == ctx.one()
            assert a / a == ctx.one()


def test_rational_embedding_is_ring_hom():
    ctx = cyclotomic_context(8)
    for x, y in product([0, 1, -2, Fraction(3, 4)], repeat=2):
        assert ctx.from_rational(x) + ctx.from_rational(y) \
            == ctx.from_rational(Fraction(x) + Fraction(y))
        assert ctx.from_rational(x) * ctx.from_rational(y) \
            == ctx.from_rational(Fraction(x) * Fraction(y))


def test_root_of_unity_examples():
    ctx4 = cyclotomic_context(4)
    assert root_of_unity(ctx4, 1) == ctx4.one()
    assert root_of_unity(ctx4, 2) == -ctx4.one()
    # minimal-polynomial identity for a primitive cube root
    q = root_of_unity(cyclotomic_context(12), 3)
    assert (q * q + q + 1).is_zero()
    assert q ** 3 == 1 and q != 1


def test_root_of_unity_primitive():
    ctx = cyclotomic_context(12)
    for m in (1, 2, 3, 4, 6, 12):
        q = root_of_unity(ctx, m)
        assert q ** m == ctx.one()
        for t in range(1, m):
            assert q ** t != ctx.one()


def test_root_of_unity_errors():
    ctx = cyclotomic_context(4)
    with pytest.raises(ValueError, match="not representable"):
        root_of_unity(ctx, 3)


def test_conductor_for_folds_the_lcm_up_to_the_maximum():
    assert conductor_for([]) == conductor_for([None, 0]) == 1
    assert conductor_for([4, 0, 6, None]) == 12
    assert conductor_for(range(1, 9)) == 840
    # the first order past the bound is named, whatever follows it
    for orders, first in (([1000, 7], 7), (range(1, 10 ** 9), 9),
                          ([999, 2, 5], 2)):
        with pytest.raises(ValueError, match=f"maximum conductor 1000 at "
                                             f"order {first}$"):
            conductor_for(orders)


def test_order_examples():
    ctx = cyclotomic_context(6)
    assert order(ctx.one()) == 1
    assert order(-ctx.one()) == 2
    assert order(ctx.from_rational(2)) is None
    assert order(root_of_unity(ctx, 3)) == 3
    # -zeta_3 has order 6 inside Q(zeta_3)
    ctx3 = cyclotomic_context(3)
    assert order(-root_of_unity(ctx3, 3)) == 6
    with pytest.raises(ValueError, match="order of zero"):
        order(ctx.zero())


def test_q_int_examples():
    ctx = cyclotomic_context(12)
    one = ctx.one()
    assert q_int(3, one) == 3
    assert q_int(2, -one).is_zero()
    assert q_int(0, one).is_zero()
    w = root_of_unity(ctx, 3)
    assert q_int(3, w).is_zero()


def test_q_factorial_examples():
    ctx = cyclotomic_context(12)
    w = root_of_unity(ctx, 3)
    assert q_factorial(0, w) == 1
    assert q_factorial(3, w).is_zero()
    assert q_factorial(2, -ctx.one()).is_zero()
    assert q_factorial(4, ctx.one()) == 24


def test_gauss_binom_examples():
    ctx = cyclotomic_context(4)
    i = root_of_unity(ctx, 4)
    assert gauss_binom(2, 1, -ctx.one()).is_zero()
    assert gauss_binom(7, 0, i) == 1
    # generic expansion 1 + q + 2q^2 + q^3 + q^4 evaluated at q = i
    expected = 1 + i + 2 * i ** 2 + i ** 3 + i ** 4
    assert gauss_binom(4, 2, i) == expected
    assert expected.is_zero()
    with pytest.raises(ValueError):
        gauss_binom(3, 5, i)


def test_gauss_binom_agrees_with_factorial_quotient():
    # independent route: the factorial quotient, wherever it is defined
    ctx = cyclotomic_context(12)
    for m in (1, 2, 3, 4, 6, 12):
        q = root_of_unity(ctx, m)
        for n in range(9):
            for k in range(n + 1):
                den = q_factorial(k, q) * q_factorial(n - k, q)
                if den.is_zero():
                    continue
                assert gauss_binom(n, k, q) == q_factorial(n, q) / den


def test_gauss_binom_symmetry_and_factorial_identity():
    ctx = cyclotomic_context(12)
    for m in (2, 3, 4):
        q = root_of_unity(ctx, m)
        for n in range(10):
            row = gauss_binom_row(n, q)
            for k in range(n + 1):
                assert row[k] == row[n - k]
                assert row[k] * q_factorial(k, q) * q_factorial(n - k, q) \
                    == q_factorial(n, q)


def test_binom_vanishes_examples():
    assert binom_vanishes(1, 1, 2) is True
    assert binom_vanishes(1, 1, 3) is False
    for d in (2, 3, 7):
        assert binom_vanishes(d, 0, d) is False
    with pytest.raises(ValueError, match="nontrivial root"):
        binom_vanishes(1, 1, 1)


@pytest.mark.parametrize("d", range(2, 7))
def test_vanishing_criterion_matches_pascal(d):
    # exhaustive comparison of the Pascal route against the integer-part
    # criterion (the full range runs in the acceptance suite)
    ctx = cyclotomic_context(d)
    q = root_of_unity(ctx, d)
    for n in range(2 * d + 3):
        row = gauss_binom_row(n, q)
        for k in range(n + 1):
            assert row[k].is_zero() == binom_vanishes(k, n - k, d)


def test_scalar_pow_negative():
    ctx = cyclotomic_context(8)
    z = ctx.zeta()
    assert z ** -1 == z ** 7
    assert (z + 1) ** -2 * (z + 1) ** 2 == ctx.one()


def test_render_parse_round_trip():
    ctx = cyclotomic_context(12)
    z = ctx.zeta()
    samples = [
        ctx.zero(), ctx.one(), -ctx.one(), ctx.from_rational(Fraction(1, 2)),
        z, -z, 3 * z ** 2 - 1, z ** 3 - Fraction(5, 7) * z + 2,
    ]
    for x in samples:
        assert parse_scalar(ctx, str(x)) == x
    assert str(ctx.from_rational(Fraction(1, 2)) + 3 * z ** 2) \
        == "1/2 + 3*z^2"


def test_parse_scalar_rejects_garbage():
    ctx = cyclotomic_context(4)
    for bad in ("", "x + 1", "1//2", "z^"):
        with pytest.raises(ValueError):
            parse_scalar(ctx, bad)


@pytest.mark.parametrize("n", (3, 4, 6, 12))
def test_parse_scalar_reads_negative_exponents(n):
    ctx = cyclotomic_context(n)
    z = ctx.zeta()
    assert parse_scalar(ctx, "z^-1") == z.inverse()
    assert parse_scalar(ctx, "2 - z^-2") == 2 - z ** -2
    assert parse_scalar(ctx, "-z^-1 - 3/2*z^-3 + 1") \
        == 1 - z.inverse() - Fraction(3, 2) * z ** -3
    # a sign after ``^`` belongs to the exponent, any other starts a term
    assert parse_scalar(ctx, "z^-1-z") == z.inverse() - z
    for x in (z ** -1, 2 - z ** -2, z - z ** -1, Fraction(-1, 3) * z ** -5):
        assert parse_scalar(ctx, str(x)) == x
    with pytest.raises(ValueError, match="cannot parse scalar term"):
        parse_scalar(ctx, "z^-")


@pytest.mark.parametrize("n", (3, 4, 6, 12))
def test_parse_scalar_reads_an_explicit_plus_in_an_exponent(n):
    # z^+k is z^k, as z^-k is z^(-k): the sign belongs to the exponent
    ctx = cyclotomic_context(n)
    z = ctx.zeta()
    assert parse_scalar(ctx, "z^+1") == z
    assert parse_scalar(ctx, "2 - z^+2") == 2 - z ** 2
    assert parse_scalar(ctx, "z^+1+z^-1") == z + z.inverse()
    assert parse_scalar(ctx, "-3/2*z^+3 + 1") == 1 - Fraction(3, 2) * z ** 3


@pytest.mark.parametrize("term", ["z^+", "z^+-1", "z^-+1", "z^--1", "z^++1",
                                  "-"])
def test_parse_scalar_names_a_malformed_term_whole(term):
    with pytest.raises(ValueError) as info:
        parse_scalar(cyclotomic_context(6), f"1 + {term}")
    assert str(info.value) == f"cannot parse scalar term {term!r}"


@pytest.mark.parametrize("text", ["1/0", "3/0*z", "2 - 1/00*z^2"])
def test_parse_scalar_names_a_zero_denominator(text):
    with pytest.raises(ValueError) as info:
        parse_scalar(cyclotomic_context(12), text)
    assert str(info.value) == f"zero denominator in scalar {text!r}"


def test_parse_rational_names_a_zero_denominator():
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational("0.5") == Fraction(1, 2)
    with pytest.raises(ValueError) as info:
        parse_rational("1/0")
    assert str(info.value) == "zero denominator in scalar '1/0'"


# -- one rational literal ------------------------------------------------------

# every spelling of a rational that the package reads, and its value;
# ``parse_rational``, ``from_rational``, ``scalar`` and the CLI's --q and
# --lambda all read the same literals
RATIONAL_SPELLINGS = [
    ("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), (".5", Fraction(1, 2)),
    ("5e-1", Fraction(1, 2)), ("-0.25", Fraction(-1, 4)),
    ("-1/4", Fraction(-1, 4)), ("-6/4", Fraction(-3, 2)),
    ("1e3", Fraction(1000)), ("2.5E+2", Fraction(250)), ("+3", Fraction(3)),
    ("3.", Fraction(3)), ("0", Fraction(0)), (" 1 / 2 ", Fraction(1, 2)),
]
# and what none of them reads
NOT_RATIONAL = ["1_000", "abc", "1/2.0", "1.5/2", "inf", "nan", "1e", "e3",
                "--1", "1/-2", ".", "0x10", "\t1"]


@pytest.mark.parametrize("text, value", RATIONAL_SPELLINGS)
def test_every_entry_point_reads_the_same_rational_literals(text, value):
    # ``scalar`` once refused 0.5, -0.25 and 1e3, which ``from_rational``
    # read
    ctx = cyclotomic_context(4)
    assert parse_rational(text) == value
    assert ctx.from_rational(text) == value
    assert ctx.scalar(text) == value
    assert ctx.scalar(f"{text}*z") == value * ctx.zeta()
    assert ctx.scalar(f"z - {text.lstrip('+-')}") \
        == ctx.zeta() - abs(value)


@pytest.mark.parametrize("text", NOT_RATIONAL)
def test_every_entry_point_refuses_the_same_literals(text):
    # ``scalar`` names the malformed term, which a sign may cut short
    ctx = cyclotomic_context(4)
    for call in (parse_rational, ctx.from_rational):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            call(text)
    with pytest.raises(ValueError, match="cannot parse scalar term"):
        ctx.scalar(text)


def test_order_search_covers_lcm_two_n():
    # all roots of unity in Q(zeta_N) have order dividing lcm(2, N)
    for conductor in (3, 4, 5, 6):
        ctx = cyclotomic_context(conductor)
        target = math.lcm(2, conductor)
        z = -ctx.zeta()
        t = order(z)
        assert t is not None and target % t == 0


def test_scalars_compare_within_conductor():
    a = cyclotomic_context(4).zeta()
    b = cyclotomic_context(8).zeta() ** 2
    # structurally different conductors never compare equal, and mixing
    # them in arithmetic is an error
    assert a != b
    with pytest.raises(ValueError, match="different cyclotomic"):
        a + b


def test_scalar_division_by_zero():
    ctx = cyclotomic_context(4)
    with pytest.raises(ZeroDivisionError):
        ctx.one() / ctx.zero()


@pytest.mark.parametrize("n", (3, 4, 6, 12))
def test_hash_tells_minus_one_from_minus_two(n):
    # CPython hashes the ints -1 and -2 alike; a scalar table keyed by
    # values one apart there must not fall through to equality
    ctx = cyclotomic_context(n)
    one, z = ctx.one(), ctx.zeta()
    for x, y in ((-one, -2 * one), (one - z, one - 2 * z),
                 (z - one, z - 2 * one)):
        assert x != y and hash(x) != hash(y)
    for x, y in ((-one, one - 2 * one), (one - z, (2 - 2 * z) / 2),
                 (z - one, -(one - z))):
        assert x == y and hash(x) == hash(y)


# -- coercion takes exact values only ------------------------------------------

INEXACT = (0.1, 0.5, 2.0, float("inf"), float("nan"), Decimal("0.1"),
           Decimal(2), 1j, complex(2, 0), None, [1])


@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_coercion_refuses_what_is_not_exact(value):
    # 0.1 once became 3602879701896397/36028797018963968, inf raised
    # OverflowError and None TypeError; each is now a ValueError that
    # names the value
    ctx = cyclotomic_context(4)
    z4 = root_of_unity(ctx, 4)
    element = Lin.from_path(ctx, cycle_path(4, 0, 1))
    calls = (lambda: ctx.scalar(value), lambda: ctx.from_rational(value),
             lambda: element.scale(value),
             lambda: element.copy().add_scaled(element, value),
             lambda: cycle_deform(4, z4, value))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            call()


def test_from_rational_refuses_a_scalar_and_does_not_offer_one():
    # only scalar() takes a Scalar; from_rational's refusal lists what
    # from_rational itself takes
    ctx = cyclotomic_context(4)
    for value in (ctx.zeta(), ctx.one(), ctx.from_rational(3)):
        with pytest.raises(ValueError, match=re.escape(repr(value))) as err:
            ctx.from_rational(value)
        assert "int, a Fraction or text" in str(err.value)
        assert "Scalar or" not in str(err.value)
        assert ctx.scalar(value) is value


def test_coercion_keeps_ints_bools_fractions_scalars_and_text():
    ctx = cyclotomic_context(4)
    z = ctx.zeta()
    assert ctx.scalar(3) == 3 and ctx.scalar(1) is ctx.one()
    assert ctx.scalar(True) == 1 and ctx.scalar(False) == ctx.zero()
    assert ctx.scalar(Fraction(3, 6)) == Fraction(1, 2)
    assert ctx.scalar(z) is z
    assert ctx.scalar("1/2 - z") == Fraction(1, 2) - z
    assert ctx.from_rational("3/4") == Fraction(3, 4)
    assert cycle_deform(4, root_of_unity(ctx, 4), Fraction(1, 10)) \
        .label().endswith("1/10")
    with pytest.raises(ValueError, match="zero denominator"):
        ctx.from_rational("1/0")
    # the arithmetic operators already refused a float
    with pytest.raises(TypeError):
        ctx.one() + 0.5

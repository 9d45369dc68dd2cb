import math
import random
import re
from fractions import Fraction

import pytest

from hopfpath import (
    CoalgElement, GradedHopfParams, Path, chain_path, comultiply, counit,
    cycle_path, cyclotomic_context, enumerate_paths, multiply,
    gauss_binom_row, order as q_order, q_factorial, root_of_unity,
    structure_table, tensor_multiply, unit, verify_graded_bialgebra,
)
from hopfpath.scalars import Scalar


def cyc(n, order=None, power=1):
    ctx = cyclotomic_context(n if order is None else order)
    q = ctx.one() if order is None else root_of_unity(ctx, order) ** power
    return GradedHopfParams.cycle(n, q)


def elem(params, path, coeff=1):
    return CoalgElement.from_path(params.ctx, path, coeff)


def path_product(params, a, b):
    """The product of two basis paths, through ``multiply``."""
    return multiply(params, elem(params, a), elem(params, b))


def test_params_validation():
    ctx = cyclotomic_context(4)
    with pytest.raises(ValueError, match="q\\^n = 1"):
        GradedHopfParams.cycle(3, root_of_unity(ctx, 4))
    with pytest.raises(ValueError, match="nonzero"):
        GradedHopfParams.chain(ctx.zero())


@pytest.mark.parametrize("kind, match", [
    (("cycle", -3), "cycle length must be positive"),
    (("cycle", 0), "cycle length must be positive"),
    (("cycle", 3.0), "n must be an int, not 3.0"),
    (("cycle", True), "n must be an int, not True"),
    (("chain", 5), "unknown quiver kind \\('chain', 5\\)"),
    (("cycle",), "unknown quiver kind"),
    (("cycle", 3, 0), "unknown quiver kind"),
    (["cycle", 3], "unknown quiver kind"),
    ("cycle", "unknown quiver kind"),
    (None, "unknown quiver kind None"),
], ids=repr)
def test_params_refuse_a_malformed_kind(kind, match):
    # ("cycle", -3) verified as passed, since z^-3 = 1; ("cycle", 0) died
    # with a ZeroDivisionError inside the verdict; ("chain", 5) was taken
    q = root_of_unity(cyclotomic_context(3), 3)
    with pytest.raises(ValueError, match=match):
        GradedHopfParams(kind, q)


@pytest.mark.parametrize("make", [
    lambda q: GradedHopfParams.cycle(3, q),
    lambda q: GradedHopfParams.chain(q),
    lambda q: GradedHopfParams(("chain",), q),
], ids=["cycle", "chain", "init"])
@pytest.mark.parametrize("q", [1, Fraction(2), 2.0, "2", None, True],
                         ids=repr)
def test_params_refuse_a_q_that_is_not_a_scalar(make, q):
    # GradedHopfParams.cycle(3, 1) and .chain(Fraction(2)) died with an
    # AttributeError
    with pytest.raises(ValueError,
                       match=f"^q must be a Scalar, not {re.escape(repr(q))}$"):
        make(q)


def test_q_power_far_exponents():
    params = cyc(6, 6)
    q = params.q
    assert params.q_power(1200) == q ** 1200 == params.ctx.one()
    assert params.q_power(-1200) == params.ctx.one()
    assert params.q_power(-1) * q == params.ctx.one()
    assert params.q_power(1201) == q


def test_cube_root_product():
    params = cyc(3, 3)
    w = params.q
    out = path_product(params, cycle_path(3, 1, 1), cycle_path(3, 1, 1))
    assert out == elem(params, cycle_path(3, 2, 2), w * (1 + w))
    assert out == elem(params, cycle_path(3, 2, 2), -1)


def test_group_like_actions():
    # g * p_i^l = q^l p_{i+1}^l and p_i^l * g = p_{i+1}^l
    for n, order in [(3, 3), (4, 4), (4, 2), (6, 3)]:
        params = cyc(n, order)
        g = cycle_path(n, 1, 0)
        for path in enumerate_paths(params.kind, 4):
            left = path_product(params, g, path)
            expect = elem(params, cycle_path(n, path.source + 1, path.length),
                          params.q ** path.length)
            assert left == expect
            right = path_product(params, path, g)
            assert right == elem(params,
                                 cycle_path(n, path.source + 1, path.length))


def test_vanishing_product():
    params = cyc(4, 4)
    out = path_product(params, cycle_path(4, 1, 2), cycle_path(4, 0, 3))
    assert out.is_zero()


def test_unit_element():
    params = cyc(5, 5)
    one = unit(params)
    for path in enumerate_paths(params.kind, 3):
        x = elem(params, path)
        assert multiply(params, one, x) == x
        assert multiply(params, x, one) == x


def test_arrow_cube_vanishes_at_cube_root():
    params = cyc(3, 3)
    a0 = elem(params, cycle_path(3, 0, 1))
    sq = multiply(params, a0, a0)
    assert sq == elem(params, cycle_path(3, 0, 2), 1 + params.q)
    assert multiply(params, sq, a0).is_zero()


def test_divided_power_square():
    # (p_0^d)^2 = binom(2d, d)_q p_0^2d = 2 p_0^2d at a root of order d;
    # the coefficient 2 is forced by compatibility with the
    # comultiplication (checked exhaustively below)
    params = cyc(2, 2)
    p = elem(params, cycle_path(2, 0, 2))
    assert multiply(params, p, p) == elem(params, cycle_path(2, 0, 4), 2)


def power_formula_check(params, l, j):
    """Divided-power laws for p = p_0^d at a root of unity q of order d.

    Checks p^l = l! * p_0^(d*l) and p_0^(d*l) * a_0^j = j!_q * p_0^(j+d*l)
    under the closed product.  The l-th power carries the ordinary
    factorial l!: the coefficient binom(2d, d)_q * binom(3d, d)_q * ...
    collapses to l! at a root of unity of order d.
    """
    d = q_order(params.q)
    if d is None:
        raise ValueError("q has infinite order; no finite divided-power degree")
    if d < 2:
        raise ValueError("divided-power laws need a nontrivial root of unity")
    p = elem(params, Path(params.kind, 0, d))
    power = unit(params)
    for _ in range(l):
        power = multiply(params, power, p)
    if power != elem(params, Path(params.kind, 0, d * l), math.factorial(l)):
        return False
    a = elem(params, Path(params.kind, 0, 1))
    lhs = elem(params, Path(params.kind, 0, d * l))
    for _ in range(j):
        lhs = multiply(params, lhs, a)
    return lhs == elem(params, Path(params.kind, 0, j + d * l),
                       q_factorial(j, params.q))


@pytest.mark.parametrize("n,order,l,j", [
    (4, 4, 2, 3),
    (2, 2, 1, 1),
    (6, 3, 3, 2),
])
def test_power_formulas(n, order, l, j):
    assert power_formula_check(cyc(n, order), l, j) is True


def test_power_formula_requires_finite_order():
    ctx = cyclotomic_context(1)
    params = GradedHopfParams.chain(ctx.from_rational(2))
    with pytest.raises(ValueError, match="infinite order"):
        power_formula_check(params, 2, 1)


def test_eq_consistency_vertex_products():
    # p_j^0 * p_i^l = q^{jl} p_{i+j}^l and p_i^l * p_j^0 = p_{i+j}^l
    params = cyc(4, 4)
    for j in range(4):
        vertex = cycle_path(4, j, 0)
        for path in enumerate_paths(params.kind, 3):
            assert path_product(params, vertex, path) == elem(
                params, cycle_path(4, path.source + j, path.length),
                params.q ** (j * path.length))
            assert path_product(params, path, vertex) == elem(
                params, cycle_path(4, path.source + j, path.length))


@pytest.mark.parametrize("n,order", [(2, 2), (4, 4), (4, 2)])
def test_verify_graded_bialgebra_passes(n, order):
    rep = verify_graded_bialgebra(cyc(n, order), 4)
    assert rep.passed, rep.summary()


def test_verify_graded_bialgebra_chain():
    ctx = cyclotomic_context(4)
    for q in [ctx.one(), ctx.from_rational(2), ctx.from_rational(Fraction(-1, 3)),
              root_of_unity(ctx, 4)]:
        rep = verify_graded_bialgebra(GradedHopfParams.chain(q), 3)
        assert rep.passed, rep.summary()


def test_chain_negative_sources():
    ctx = cyclotomic_context(1)
    params = GradedHopfParams.chain(ctx.from_rational(2))
    out = path_product(params, chain_path(-1, 1), chain_path(2, 1))
    # q^{i m} with i = -1, m = 1
    assert out == CoalgElement.from_path(
        ctx, chain_path(1, 2), (1 + ctx.from_rational(2)) / 2)


def test_chain_matches_cycle_before_wrap():
    # with q of order d on both sides, products agree with the cycle
    # formula under source reduction as long as lengths do not wrap
    n = 5
    ctxq = cyclotomic_context(5)
    q = root_of_unity(ctxq, 5)
    cycle = GradedHopfParams.cycle(n, q)
    chain = GradedHopfParams.chain(q)
    for i in range(3):
        for j in range(3):
            for l in range(1, 3):
                for m in range(1, 3):
                    if l + m >= n:
                        continue
                    c_out = path_product(chain, chain_path(i, l),
                                         chain_path(j, m))
                    z_out = path_product(cycle, cycle_path(n, i, l),
                                         cycle_path(n, j, m))
                    if c_out.is_zero():
                        assert z_out.is_zero()
                        continue
                    ((cp, cc),) = list(c_out.terms.items())
                    ((zp, zc),) = list(z_out.terms.items())
                    assert cc == zc
                    assert zp.source == cp.source % n
                    assert zp.length == cp.length


def test_associativity_sweep():
    for n in range(1, 5):
        ctx = cyclotomic_context(n)
        zn = root_of_unity(ctx, n)
        for t in range(n):
            params = GradedHopfParams.cycle(n, zn ** t)
            basis = enumerate_paths(params.kind, 3)
            for a in basis:
                ea = elem(params, a)
                for b in basis:
                    ab = multiply(params, ea, elem(params, b))
                    for c in basis:
                        ec = elem(params, c)
                        assert multiply(params, ab, ec) == multiply(
                            params, ea,
                            multiply(params, elem(params, b), ec))


def test_associativity_length_five_sampled():
    # strided sample of length-5 triples at the largest cycle
    params = cyc(6, 6)
    basis = enumerate_paths(params.kind, 5)
    sample = basis[::4]
    for a in sample:
        ea = elem(params, a)
        for b in sample:
            ab = multiply(params, ea, elem(params, b))
            for c in sample:
                ec = elem(params, c)
                assert multiply(params, ab, ec) == multiply(
                    params, ea, multiply(params, elem(params, b), ec))


def test_comultiplication_is_algebra_map_spot():
    params = cyc(6, 3)
    basis = enumerate_paths(params.kind, 4)
    for a in basis[::3]:
        for b in basis[::3]:
            ea, eb = elem(params, a), elem(params, b)
            assert comultiply(multiply(params, ea, eb)) \
                == tensor_multiply(params, comultiply(ea), comultiply(eb))
            assert counit(multiply(params, ea, eb)) \
                == counit(ea) * counit(eb)


def test_tensor_multiply_refuses_a_square_of_another_quiver():
    # chain paths under cycle params would come back as a cycle-square
    # element holding chain paths
    params = cyc(4, 4)
    chain = comultiply(CoalgElement.from_path(params.ctx, chain_path(0, 1)))
    with pytest.raises(ValueError, match="does not match the multiplication"):
        tensor_multiply(params, chain, chain)
    cycle = comultiply(elem(params, cycle_path(4, 0, 1)))
    for tx, ty in [(chain, cycle), (cycle, chain)]:
        with pytest.raises(ValueError, match="does not match the multiplication"):
            tensor_multiply(params, tx, ty)
    assert tensor_multiply(params, cycle, cycle).space \
        == (params.kind, params.kind)


def test_structure_table_rows():
    rows = structure_table(cyc(2, 2), 1)
    lookup = {(r["left"], r["right"]): r for r in rows}
    r = lookup[("p[0,1]", "p[0,1]")]
    assert r["coeff"] == "0" and r["result"] == ""
    r = lookup[("g^1", "p[0,1]")]
    assert r["coeff"] == "-1" and r["result"] == "p[1,1]"


def _pascal_qs():
    ctx12 = cyclotomic_context(12)
    q1 = cyclotomic_context(1).one()
    return [root_of_unity(cyclotomic_context(3), 3),
            root_of_unity(cyclotomic_context(4), 4) ** 3,
            root_of_unity(ctx12, 6) ** 5,
            2 * q1, q1 / 2]


@pytest.mark.parametrize("q", _pascal_qs(), ids=str)
def test_binomial_rows_are_grown_once_in_any_order(q, monkeypatch):
    # each params holds the q-Pascal rows 0..N and extends them from the
    # last one held, so rows 0..30 cost one addition per interior entry,
    # 435 in all, whatever order they are first asked for in; every row
    # equals the one ``gauss_binom_row`` builds from row 0
    top = 30
    reference = [gauss_binom_row(n, q) for n in range(top + 1)]
    orders = [list(range(top + 1)), list(range(top, -1, -1)),
              [top] + list(range(top)), [7, 3, 19, 0, 30, 12, 29, 1]]
    for seed in range(3):
        order = list(range(top + 1))
        random.Random(seed).shuffle(order)
        orders.append(order)
    adds = []
    add = Scalar.__add__

    def counting(x, y):
        adds.append(1)
        return add(x, y)

    monkeypatch.setattr(Scalar, "__add__", counting)
    for order in orders:
        params = GradedHopfParams.chain(q)
        adds[:] = []
        for n in order:
            assert [params.binom(n, k) for k in range(n + 1)] \
                == reference[n]
        assert len(adds) == sum(m - 1 for m in range(2, max(order) + 1))
    monkeypatch.undo()
    if q.ctx.N == 1:
        # an independent route where the quotient is defined: the
        # factorial quotient n!_q / (k!_q (n - k)!_q)
        for n in range(top + 1):
            fact = [q_factorial(k, q) for k in range(n + 1)]
            assert reference[n] == [fact[n] / (fact[k] * fact[n - k])
                                    for k in range(n + 1)]

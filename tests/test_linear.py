from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfpath import (
    CoalgElement, GradedHopfParams, Lin, PBWMonomial, TensorAlg,
    TensorElement, chain_automorphism, chain_path, comultiply,
    compute_antipode, coproduct, cycle_automorphism, cycle_deform,
    cycle_graded, cycle_kind, cycle_path, cyclotomic_context,
    enumerate_paths, generator_coproducts, multiply, pbw_image,
    presentation_of, root_of_unity, type_one_cycle,
)
from hopfpath.verifier import _delta_word

CTX = cyclotomic_context(12)
Z = CTX.zeta()
KIND = cycle_kind(3)
PATHS = enumerate_paths(KIND, 3)

coords = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.lists(coords, min_size=4, max_size=4).map(
    lambda cs: sum((CTX.scalar(c) * Z ** k for k, c in enumerate(cs)),
                   CTX.zero()))
elements = st.dictionaries(st.sampled_from(PATHS), scalars, max_size=6).map(
    lambda terms: Lin(CTX, KIND, terms))


def _clean(x):
    return all(not c.is_zero() for c in x.terms.values())


def test_one_type():
    assert CoalgElement is Lin and TensorElement is Lin and TensorAlg is Lin


@given(elements, elements, elements)
def test_addition_is_commutative_and_associative(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert _clean(x + y)


@given(elements, elements, scalars, scalars)
def test_scale_distributes(x, y, a, b):
    assert (x + y).scale(a) == x.scale(a) + y.scale(a)
    assert x.scale(a + b) == x.scale(a) + x.scale(b)
    assert _clean(x.scale(a)) and _clean(x.scale(a) + x.scale(b))


@given(elements)
def test_difference_with_itself_is_empty(x):
    diff = x - x
    assert diff.is_zero() and diff.terms == {}
    assert (x + (-x)).terms == {}


@given(elements, elements, scalars)
def test_add_scaled_matches_operators(x, y, c):
    before = dict(x.terms)
    acc = Lin(CTX, KIND).add_scaled(x)
    acc.add_scaled(y, c)
    assert acc == x + c * y
    assert _clean(acc)
    assert x.terms == before


def test_from_path_is_one_fresh_term():
    p = cycle_path(3, 0, 1)
    assert Lin.from_path(CTX, p, 0).is_zero()
    assert Lin.from_path(CTX, p, CTX.zero()).is_zero()
    x, y = Lin.from_path(CTX, p, 2), Lin.from_path(CTX, p, 2)
    assert x.terms == {p: CTX.scalar(2)} and x.space == p.kind
    assert x.terms is not y.terms
    x.add_term(p, CTX.one())
    assert y.terms == {p: CTX.scalar(2)}
    zero = Lin.from_path(CTX, p, 0)
    assert zero.terms is not Lin.from_path(CTX, p, 0).terms


def test_mixing_spaces_raises():
    x = Lin.from_path(CTX, cycle_path(3, 0, 1))
    with pytest.raises(ValueError):
        x + comultiply(x)
    with pytest.raises(ValueError):
        comultiply(x) - x
    ctx = cyclotomic_context(4)
    rs1 = presentation_of(cycle_deform(4, root_of_unity(ctx, 4), 1))
    rs2 = presentation_of(type_one_cycle(4, root_of_unity(ctx, 2), 1))
    with pytest.raises(ValueError):
        rs1.one() + rs2.one()
    with pytest.raises(ValueError):
        rs1.one() - rs2.one()
    with pytest.raises(ValueError):
        rs1.one() * rs2.one()
    assert rs1.one() != rs2.one()


def test_rendering_rule():
    x = Lin.from_path(CTX, cycle_path(6, 0, 5), 1 + Z) \
        + Lin.from_path(CTX, cycle_path(6, 0, 0), 2)
    assert str(x) == "2 + (1 + z) * p[0,5]"
    rs = presentation_of(cycle_deform(4, root_of_unity(
        cyclotomic_context(4), 4), 1))
    a, h = PBWMonomial(0, 1, 0), PBWMonomial(0, 0, 1)
    t = Lin(rs.ctx, (rs, rs), {(a, h): rs.ctx.scalar(2)})
    assert str(t) == "2 * a (x) h"


def test_results_do_not_alias_caches_or_arguments():
    ctx = cyclotomic_context(4)
    desc = cycle_deform(4, root_of_unity(ctx, 4), 1)
    rs = presentation_of(desc)
    one = ctx.one()
    extra = PBWMonomial(0, 0, 3)

    cached = _delta_word(rs, "pa")
    before = dict(cached.terms)
    delta = coproduct(desc, rs.monomial(PBWMonomial(1, 1, 0)))
    assert delta.terms == before
    delta.add_term((extra, extra), one).add_scaled(delta)
    assert _delta_word(rs, "pa") is cached and cached.terms == before

    nf = rs.normal_form("ap")
    memo = rs._nf["ap"]
    before = dict(memo)
    nf.add_term(extra, one).add_scaled(nf)
    assert rs._nf["ap"] is memo and memo == before

    for sym, delta in generator_coproducts(rs).items():
        before = dict(_delta_word(rs, sym).terms)
        delta.add_term((extra, extra), one).add_scaled(delta)
        assert _delta_word(rs, sym).terms == before

    table = compute_antipode(rs, 4)
    for mono, image in table.items():
        before = dict(rs._antipode[mono].terms)
        image.add_term(extra, one).add_scaled(image)
        assert rs._antipode[mono].terms == before

    for lam in (1, 0):
        x = Lin.from_path(ctx, cycle_path(4, 0, 3), Fraction(1, 2))
        y = Lin.from_path(ctx, chain_path(0, 3), Fraction(1, 2))
        for arg, image in ((x, cycle_automorphism(4, 2, lam, 0, x)),
                           (y, chain_automorphism(2, lam, y))):
            before = dict(arg.terms)
            image.add_term(arg.sorted_terms()[0][0], one).add_scaled(image)
            assert arg.terms == before

    # results built in one pass from an argument's terms or a memo:
    # deconcatenation, automorphisms that add nothing (G x = 0, and
    # lam = 0), the path product and the PBW-to-path map
    x = Lin.from_path(ctx, cycle_path(4, 1, 2), Fraction(1, 2))
    y = Lin.from_path(ctx, cycle_path(4, 3, 1), 3)
    q = root_of_unity(ctx, 4)
    params = GradedHopfParams.cycle(4, q)
    desc = cycle_graded(4, q)
    graded = presentation_of(desc)
    z = graded.monomial(PBWMonomial(0, 2, 1), Fraction(1, 3))
    for args, make in (((x,), lambda: comultiply(x)),
                       ((x,), lambda: cycle_automorphism(4, 2, 1, 0, x)),
                       ((x,), lambda: cycle_automorphism(4, 2, 0, 1, x)),
                       ((x, y), lambda: multiply(params, x, y)),
                       ((z,), lambda: pbw_image(desc, z))):
        image = make()
        before = [dict(arg.terms) for arg in args]
        to_path = dict(graded._to_path)
        rows = [dict(row) for row in params._rows]
        image.add_term(image.sorted_terms()[0][0], one).add_scaled(image)
        assert [arg.terms for arg in args] == before
        assert graded._to_path == to_path
        assert params._rows == rows
        assert make() != image

from fractions import Fraction

import pytest

from hopfpath import (
    PBWMonomial, chain_q1, chain_root, compute_antipode, coproduct,
    counit_alg, cycle_deform, cycle_graded, cycle_half, cyclotomic_context,
    forced_vanishing_suite, generator_coproducts, multiply_alg,
    presentation_of, root_of_unity, type_one_chain, type_one_cycle,
    verify_antipode, verify_degeneration, verify_hopf,
    verify_relation_coproducts,
)
from hopfpath.verifier import (
    MAX_MONOMIAL_PAIRS, TensorAlg, _delta_word, _monomials,
)


def small_descriptors():
    ctx2 = cyclotomic_context(2)
    ctx3 = cyclotomic_context(3)
    ctx4 = cyclotomic_context(4)
    return [
        cycle_graded(2, -ctx2.one()),
        cycle_graded(4, root_of_unity(ctx4, 4)),
        cycle_graded(3, ctx3.one()),
        cycle_deform(2, -ctx2.one(), 1),
        cycle_deform(3, root_of_unity(ctx3, 3), 2),
        cycle_deform(4, root_of_unity(ctx4, 4), 1),
        cycle_half(4, -ctx2.one(), 1),
        cycle_half(6, root_of_unity(ctx3, 3), 2),
        chain_q1(cyclotomic_context(1), 1),
        chain_root(-ctx2.one(), 1),
        chain_root(root_of_unity(ctx3, 3), 2),
        type_one_cycle(4, -ctx2.one(), 1),
        type_one_chain(root_of_unity(ctx3, 3), 1),
    ]


def test_generator_coproducts_counit_axiom():
    # (eps (x) id) delta(x) = x for every generator coproduct
    for desc in small_descriptors():
        rs = presentation_of(desc)
        for sym, delta in generator_coproducts(desc).items():
            left = rs.zero_element()
            right = rs.zero_element()
            for (u, v), c in delta.terms.items():
                eps_u = desc.ctx.one() if u.j == 0 and u.k == 0 \
                    else desc.ctx.zero()
                eps_v = desc.ctx.one() if v.j == 0 and v.k == 0 \
                    else desc.ctx.zero()
                left = left + rs.monomial(v).scale(c * eps_u)
                right = right + rs.monomial(u).scale(c * eps_v)
            gen = rs.generator(sym)
            assert left == gen and right == gen, (desc.label(), sym)


def test_coproduct_is_coassociative_on_generators():
    # (delta (x) id) delta = (id (x) delta) delta on p, the only
    # generator with a nontrivial middle part
    ctx = cyclotomic_context(4)
    desc = cycle_deform(4, root_of_unity(ctx, 4), 1)
    rs = presentation_of(desc)
    delta_p = generator_coproducts(desc)["p"]
    left = {}
    right = {}
    for (u, v), c in delta_p.terms.items():
        for (u1, u2), cu in coproduct(desc, rs.monomial(u)).terms.items():
            key = (u1, u2, v)
            left[key] = left.get(key, ctx.zero()) + c * cu
        for (v1, v2), cv in coproduct(desc, rs.monomial(v)).terms.items():
            key = (u, v1, v2)
            right[key] = right.get(key, ctx.zero()) + c * cv
    clean = lambda m: {k: v for k, v in m.items() if not v.is_zero()}
    assert clean(left) == clean(right)


@pytest.mark.parametrize("desc", small_descriptors(),
                         ids=lambda d: d.label())
def test_relation_coproducts_pass(desc):
    rep = verify_relation_coproducts(desc)
    assert rep.passed, rep.summary()


def test_commutator_coproduct_cycle_deform():
    ctx = cyclotomic_context(4)
    desc = cycle_deform(4, root_of_unity(ctx, 4), 1)
    rs = presentation_of(desc)
    # delta([a, p]) = [a, p] (x) 1 + g (x) [a, p] for the skew commutator
    comm = rs.normal_form("ap") - rs.normal_form("pa")
    lhs = coproduct(desc, comm)
    unit = PBWMonomial(0, 0, 0)
    g = PBWMonomial(0, 0, 1)
    expected = TensorAlg(rs.ctx, (rs, rs))
    for m, c in comm.terms.items():
        expected = expected + TensorAlg(rs.ctx, (rs, rs), {(m, unit): c})
        expected = expected + TensorAlg(rs.ctx, (rs, rs), {(g, m): c})
    assert lhs == expected


def test_printed_chain_commutator_fails_coproduct():
    # with g p g^{-1} = p + lam (1 - g^d) and [a, p] = 0 the coproduct
    # does not respect the relations: the residual is lam (h - h^{d+1}) (x) a,
    # which pins [a, p] = lam a instead
    ctx = cyclotomic_context(2)
    q = -ctx.one()
    from hopfpath.presentations import RewriteSystem
    lam = ctx.one()
    rules = [
        ("hH", [("", ctx.one())]), ("Hh", [("", ctx.one())]),
        ("ha", [("ah", q)]), ("Ha", [("aH", q)]),
        ("hp", [("ph", ctx.one()), ("h", lam), ("hhh", -lam)]),
        ("Hp", [("pH", ctx.one()), ("H", -lam), ("h", lam)]),
        ("aa", []),
        ("ap", [("pa", ctx.one())]),  # the broken commutator
    ]
    rs = RewriteSystem(ctx, rules, p_weight=2, a_bound=2)
    # built without a q-factorial table, the system has no delta(p)
    with pytest.raises(ValueError, match="q-factorial"):
        generator_coproducts(rs)
    good = chain_root(q, 1)
    delta = generator_coproducts(good)
    # recompute delta(ap) - delta(pa) inside the broken system
    def embed(t):
        return TensorAlg(ctx, (rs, rs), dict(t.terms))
    d_a, d_p = embed(delta["a"]), embed(delta["p"])
    residual = d_a * d_p - d_p * d_a
    h = PBWMonomial(0, 0, 1)
    h3 = PBWMonomial(0, 0, 3)
    a = PBWMonomial(0, 1, 0)
    assert residual == TensorAlg(ctx, (rs, rs), {(h, a): lam, (h3, a): -lam})


def test_antipode_values():
    ctx = cyclotomic_context(2)
    desc = cycle_graded(2, -ctx.one())
    S = compute_antipode(desc, 4)
    rs = presentation_of(desc)
    assert S[PBWMonomial(0, 0, 1)] == rs.monomial(PBWMonomial(0, 0, 1))
    # S(a) = -h^{n-1} a, which reduces to +a h at n = 2, q = -1
    assert S[PBWMonomial(0, 1, 0)] == rs.normal_form("ha", -1)
    assert S[PBWMonomial(0, 1, 0)] == rs.monomial(PBWMonomial(0, 1, 1))
    # S(p) = -p at n = 2, q = -1 (the a^2 correction vanishes)
    assert S[PBWMonomial(1, 0, 0)] == rs.monomial(PBWMonomial(1, 0, 0)).scale(-1)


def test_antipode_group_inverse():
    for desc in small_descriptors():
        rs = presentation_of(desc)
        S = compute_antipode(desc, 2)
        h = PBWMonomial(0, 0, 1)
        if not desc.is_chain and desc.n == 1:
            continue
        assert multiply_alg(desc, S[h], rs.monomial(h)) == rs.one()


@pytest.mark.parametrize("desc", small_descriptors(),
                         ids=lambda d: d.label())
def test_antipode_axioms(desc):
    bound = 2 * (desc.n or 4)
    rep = verify_antipode(desc, bound)
    assert rep.passed, rep.summary()


def test_verify_hopf_all_checks():
    ctx = cyclotomic_context(4)
    rep = verify_hopf(cycle_deform(4, root_of_unity(ctx, 4), 1), 8)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert any("counit is an algebra map" in n for n in names)
    assert any("anti-multiplicative" in n for n in names)


@pytest.mark.parametrize("desc", [
    d for d in small_descriptors()
    if d.family not in ("cycle-graded", "chain-graded")],
    ids=lambda d: d.label())
def test_degeneration(desc):
    bound = 2 * (desc.n or 4)
    rep = verify_degeneration(desc, bound)
    assert rep.passed, rep.summary()


def test_degeneration_counterexample_detection():
    # sanity: a deliberately wrong "deformation" must be caught, so the
    # degeneration check is not vacuous
    ctx = cyclotomic_context(4)
    desc = cycle_deform(4, root_of_unity(ctx, 4), 1)
    rs = presentation_of(desc)
    x = rs.monomial(PBWMonomial(0, 1, 0))
    p = rs.monomial(PBWMonomial(1, 0, 0))
    prod = multiply_alg(desc, x, p)
    top = prod.weight_part(rs.monomial_weight(PBWMonomial(1, 1, 0)))
    assert top == rs.monomial(PBWMonomial(1, 1, 0))
    rest = prod - top
    assert rest.weight() == 1  # the lam * a remainder sits in lower weight


def test_counit_algebra_map():
    ctx = cyclotomic_context(3)
    desc = cycle_deform(3, root_of_unity(ctx, 3), 1)
    rs = presentation_of(desc)
    monos = _monomials(desc, 6)
    for x in monos[::2]:
        for y in monos[::2]:
            prod = multiply_alg(desc, rs.monomial(x), rs.monomial(y))
            ex = counit_alg(desc, rs.monomial(x))
            ey = counit_alg(desc, rs.monomial(y))
            assert counit_alg(desc, prod) == ex * ey


def test_forced_vanishing_suite_shapes():
    ctx = cyclotomic_context(12)
    rep = forced_vanishing_suite(ctx, 4, 2)
    assert rep.passed, rep.summary()
    rep = forced_vanishing_suite(ctx, 6, 3)
    assert rep.passed, rep.summary()
    rep = forced_vanishing_suite(ctx, 6, 2)
    assert rep.passed, rep.summary()
    with pytest.raises(ValueError, match="proper divisor"):
        forced_vanishing_suite(ctx, 4, 4)


def test_half_deform_coefficient_readings():
    # the two readings agree for d <= 3 and differ at d = 4, where only
    # the factorial reading is compatible with the coproduct
    ctx3 = cyclotomic_context(3)
    for reading in ("factorial", "integer"):
        desc = cycle_half(6, root_of_unity(ctx3, 3), 1,
                          coeff_reading=reading)
        assert verify_relation_coproducts(desc).passed
    ctx8 = cyclotomic_context(8)
    i8 = root_of_unity(ctx8, 4)
    good = cycle_half(8, i8, 1, coeff_reading="factorial")
    assert verify_relation_coproducts(good).passed
    bad = cycle_half(8, i8, 1, coeff_reading="integer")
    rep = verify_relation_coproducts(bad)
    assert not rep.passed
    assert any("ap" in c.name for c in rep.failures())


def test_antipode_anti_multiplicative_spot():
    ctx = cyclotomic_context(2)
    desc = cycle_half(4, -ctx.one(), 1)
    rs = presentation_of(desc)
    from hopfpath.verifier import _antipode_mono
    monos = _monomials(desc, 4)
    for x in monos:
        for y in monos:
            prod = multiply_alg(desc, rs.monomial(x), rs.monomial(y))
            assert prod.map_terms(lambda m: _antipode_mono(rs, m)) \
                == multiply_alg(desc, _antipode_mono(rs, y),
                                _antipode_mono(rs, x))


@pytest.mark.parametrize("word", ["a" * 1500, "ap" * 600])
def test_delta_word_of_a_long_word_needs_no_recursion(word):
    # a^2 = 0 on the 2-cycle, so both coproducts vanish; each word is
    # longer than the interpreter's recursion limit in runs or letters
    desc = cycle_deform(2, -cyclotomic_context(2).one(), 1)
    rs = presentation_of(desc)
    out = _delta_word(rs, word)
    assert out.is_zero() and out.space == (rs, rs)
    assert rs._delta[word] is out
    ends = [k for k in range(1, len(word) + 1)
            if k == len(word) or word[k] != word[k - 1]]
    assert all(word[:k] in rs._delta for k in ends)
    if word[1:2] == "a":
        assert all("a" * k in rs._delta for k in range(1, len(word)))
        assert _delta_word(rs, "a" * 1499) * _delta_word(rs, "a") == out


@pytest.mark.parametrize("verify", [compute_antipode, verify_antipode,
                                    verify_hopf, verify_degeneration])
def test_monomial_pairs_are_bounded_before_any_product(verify):
    q3 = root_of_unity(cyclotomic_context(3), 3)
    desc = chain_root(q3, 1)
    rs = presentation_of(desc)
    # 26 is the largest chain-root bound at d = 3 within the maximum
    window = range(-2, 3)
    assert rs.pair_count(26, window) <= MAX_MONOMIAL_PAIRS \
        < rs.pair_count(27, window)
    before = len(rs._prod), len(rs._nf)
    for bound in (27, 10_000, 10 ** 12):
        with pytest.raises(ValueError, match="monomial pairs"):
            verify(desc, bound)
    assert (len(rs._prod), len(rs._nf)) == before


def test_monomial_pairs_are_counted_exactly_within_the_maximum():
    ctx4 = cyclotomic_context(4)
    for desc in small_descriptors() + [
            cycle_deform(4, root_of_unity(ctx4, 4), 1),
            type_one_cycle(4, root_of_unity(ctx4, 2), 1),
            chain_q1(cyclotomic_context(1), 1)]:
        rs = presentation_of(desc)
        for bound in range(1, 13):
            monos = _monomials(desc, bound)
            weights = [rs.monomial_weight(m) for m in monos]
            assert rs.pair_count(bound, range(-2, 3)) == sum(
                1 for u in weights for v in weights if u + v <= bound)

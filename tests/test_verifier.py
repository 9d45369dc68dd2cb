import re
from fractions import Fraction

import pytest

from hopfpath import (
    PBWMonomial, chain_q1, chain_root, check_confluence, comultiply,
    compute_antipode, coproduct, cycle_deform, cycle_graded, cycle_half,
    cyclotomic_context, forced_vanishing_suite, generator_coproducts,
    multiply_alg, pbw_to_path, presentation_of, root_of_unity,
    type_one_chain, type_one_cycle, verify_antipode, verify_degeneration,
    verify_hopf, verify_relation_coproducts,
)
from hopfpath.verifier import (
    MAX_MONOMIAL_PAIRS, TensorAlg, _antipode_mono, _delta_word, _monomials,
)
from test_acceptance import _family_sweep
from test_rewriting_props import SWEEP, _dropped_rule_systems


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


# every generator of every family of the acceptance sweep: the premises
# of the relation-by-relation Hopf verdict
SWEEP_GENERATORS = [(desc, sym) for desc in _family_sweep()
                    for sym in generator_coproducts(desc)]


def _generator_id(param):
    return param if isinstance(param, str) else param.label()


@pytest.mark.parametrize("desc, sym", SWEEP_GENERATORS, ids=_generator_id)
def test_generator_coproducts_counit_axiom(desc, sym):
    # (eps (x) id) delta(x) = x = (id (x) eps) delta(x)
    rs = presentation_of(desc)
    left = rs.zero_element()
    right = rs.zero_element()
    for (u, v), c in generator_coproducts(desc)[sym].terms.items():
        eps_u = desc.ctx.one() if u.j == 0 and u.k == 0 \
            else desc.ctx.zero()
        eps_v = desc.ctx.one() if v.j == 0 and v.k == 0 \
            else desc.ctx.zero()
        left = left + rs.monomial(v).scale(c * eps_u)
        right = right + rs.monomial(u).scale(c * eps_v)
    gen = rs.normal_form(sym)
    assert left == gen and right == gen


@pytest.mark.parametrize("desc, sym", SWEEP_GENERATORS, ids=_generator_id)
def test_coproduct_is_coassociative_on_generators(desc, sym):
    # (delta (x) id) delta = (id (x) delta) delta
    ctx = desc.ctx
    rs = presentation_of(desc)
    left = {}
    right = {}
    for (u, v), c in generator_coproducts(desc)[sym].terms.items():
        for (u1, u2), cu in coproduct(desc, rs.monomial(u)).terms.items():
            key = (u1, u2, v)
            left[key] = left.get(key, ctx.zero()) + c * cu
        for (v1, v2), cv in coproduct(desc, rs.monomial(v)).terms.items():
            key = (u, v1, v2)
            right[key] = right.get(key, ctx.zero()) + c * cv
    clean = lambda m: {k: v for k, v in m.items() if not v.is_zero()}
    assert clean(left) == clean(right)


@pytest.mark.parametrize("desc", [d for d in _family_sweep() if d.is_graded],
                         ids=lambda d: d.label())
def test_pbw_coproduct_is_the_path_coproduct(desc):
    # on a graded family the PBW coproduct, carried factor by factor
    # through pbw_to_path, is deconcatenation of the image path
    rs = presentation_of(desc)
    bound = 8 if desc.is_chain else 2 * desc.n
    monos = rs.normal_monomials(bound, range(-2, 3))
    assert monos
    to_path = lambda m: pbw_to_path(desc, m)
    for m in monos:
        carried = _delta_word(rs, m.word()).map_factors(to_path, to_path)
        assert carried.terms == comultiply(to_path(m)).terms, m


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


def test_coproduct_refuses_an_element_of_another_space():
    z4 = root_of_unity(cyclotomic_context(4), 4)
    deformed, graded = cycle_deform(4, z4, 1), cycle_graded(4, z4)
    x = presentation_of(graded).normal_form("ap")
    path = pbw_to_path(graded, PBWMonomial(1, 1, 0))
    for elt in (x, path):
        with pytest.raises(ValueError, match="different presentation"):
            coproduct(deformed, elt)
    assert coproduct(graded, x).space == (presentation_of(graded),) * 2


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
    desc = cycle_deform(4, root_of_unity(ctx, 4), 1)
    rep = verify_hopf(desc, 8)
    assert rep.passed
    assert rep.subject == f"Hopf axioms of {desc.label()}"
    names = [c.name for c in rep.checks]
    lhs = [lhs for lhs, _ in presentation_of(desc).rules]
    for what in ("delta", "counit", "antipode"):
        assert [n.split(" -> ")[0] for n in names
                if n.startswith(f"{what} respects ")] \
            == [f"{what} respects {l}" for l in lhs]
    assert any(n.startswith("ambiguity ") for n in names)
    assert "irreducible words are exactly the PBW words" in names
    assert "antipode solve" in names
    # the coalgebra and antipode axioms are checked on the generators only
    for sym in "hap":
        assert f"coassociativity on {sym}" in names
        assert f"counit axiom on {sym}" in names
    assert "left antipode axiom on generators h, a, p" in names
    assert "right antipode axiom on generators h, a, p" in names
    assert not any("monomials" in n or "pairs" in n for n in names)


@pytest.mark.parametrize("extra, failing", [
    # delta(a) + a (x) a is counital but not coassociative
    (("a", "a"), ["coassociativity on a"]),
    # delta(a) + a (x) 1 breaks both
    (("a", "1"), ["coassociativity on a", "counit axiom on a"]),
], ids=["plus-a-tensor-a", "plus-a-tensor-1"])
def test_the_generator_checks_catch_a_wrong_coproduct(extra, failing):
    from hopfpath.verifier import _trial_system
    ctx = cyclotomic_context(4)
    rs = _trial_system(cycle_deform(4, root_of_unity(ctx, 4), 1), {},
                       "wrong delta(a)")
    monos = {"a": rs.letter("a"), "1": rs.interned(0, 0, 0)}
    rs._delta["a"] = _delta_word(rs, "a").copy().add_term(
        tuple(monos[x] for x in extra), ctx.one())
    failed = {c.name: c.witness for c in verify_hopf(rs, 4).failures()}
    assert sorted(name for name in failed if name.endswith(" on a")) \
        == failing
    assert failed["coassociativity on a"].startswith("residual ")


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


def _counit_and_antipode_pairs():
    # cycle-deform(3, zeta_3, 1) on alternate monomials of weight <= 6
    # (pairs up to weight 12), then every pair of total weight <= 6 on
    # each small descriptor
    ctx = cyclotomic_context(3)
    desc = cycle_deform(3, root_of_unity(ctx, 3), 1)
    monos = _monomials(desc, 6)[::2]
    yield desc, [(x, y) for x in monos for y in monos]
    for desc in small_descriptors():
        rs = presentation_of(desc)
        yield desc, list(rs.monomial_pairs(6, range(-2, 3)))


def counit_alg(rs, x):
    """Counit of an element: 1 on each h^i, 0 once a or p occurs."""
    total = rs.ctx.zero()
    for mono, c in x.terms.items():
        if not (mono.j or mono.k):
            total = total + c
    return total


def test_counit_algebra_map():
    # epsilon(xy) = epsilon(x) epsilon(y) and S(xy) = S(y) S(x) on
    # monomial pairs, which verify_hopf no longer loops over
    for desc, pairs in _counit_and_antipode_pairs():
        rs = presentation_of(desc)
        S = compute_antipode(desc, 6)
        for x, y in pairs:
            prod = multiply_alg(desc, rs.monomial(x), rs.monomial(y))
            ex = counit_alg(rs, rs.monomial(x))
            ey = counit_alg(rs, rs.monomial(y))
            assert counit_alg(rs, prod) == ex * ey, (desc.label(), x, y)
            # prod may weigh more than 6 or leave the chain window, so
            # its terms are looked up through the memo, not the table
            assert prod.map_terms(lambda m: _antipode_mono(rs, m)) \
                == multiply_alg(desc, S[y], S[x]), (desc.label(), x, y)


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
                                    verify_degeneration])
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


def test_the_certificate_ignores_its_degree_bound():
    # the certificate forms no monomial and its basis audit has no
    # bound, so every degree bound gives the same report
    q3 = root_of_unity(cyclotomic_context(3), 3)
    desc = chain_root(q3, 1)
    reports = [verify_hopf(desc, bound)
               for bound in (6, -3, 0, 2_000, 10 ** 12)]
    assert reports[0].passed
    assert all(rep == reports[0] for rep in reports)


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


AUDIT = "irreducible words are exactly the PBW words"


def test_a_dropped_rule_fails_the_audit_and_crashes_nothing():
    failed, passed = {}, []
    for rs in _dropped_rule_systems(SWEEP):
        confluence, hopf = check_confluence(rs, 6), verify_hopf(rs, 6)
        assert confluence.passed == hopf.passed, rs.name
        if hopf.passed:
            passed.append(rs)
            continue
        for rep in (confluence, hopf):
            assert [c.name for c in rep.checks] == [AUDIT], rs.name
        failed[rs.name] = hopf.checks[0].witness
    assert len(failed) == 456
    # the group algebras of Z/n on h: with ha -> ah gone, a is no letter
    assert [rs.name for rs in passed] \
        == [f"cycle-graded, n={n}, q=1 over Q(zeta_{n}) without ha"
            for n in range(1, 7)]
    assert all(rs.letters == {"h"} for rs in passed)
    # verify_hopf crashed on the first (AssertionError: irreducible word
    # 'aaaaaa' is not in PBW shape) and passed the last two; the audit
    # bounded at length 5 on chains passed all six
    for family in ("chain-graded, q=z", "chain-root, q=z, lambda=0",
                   "chain-root, q=z, lambda=1", "chain-root, q=z, lambda=2",
                   "type-one-chain, q=z, mu=0", "type-one-chain, q=z, mu=1"):
        assert failed[f"{family} over Q(zeta_6) without aaaaaa"] \
            == "aaaaaa"


NOT_INT_BOUNDS = [6.0, 6.5, "6", True, Fraction(6), None]


def _fresh_chain_root():
    """A chain-root presentation outside ``presentation_of``'s cache,
    with empty memos."""
    desc = chain_root(root_of_unity(cyclotomic_context(3), 3), 1)
    return presentation_of.__wrapped__(desc)


@pytest.mark.parametrize("bound", NOT_INT_BOUNDS, ids=repr)
@pytest.mark.parametrize("verify", [compute_antipode, verify_antipode,
                                    verify_degeneration])
def test_degree_bounds_must_be_ints(verify, bound):
    # 6.0 and 6.5 died with a TypeError from range, "6" with one from
    # ``<``, and True was read as the bound 1 and passed
    rs = _fresh_chain_root()
    with pytest.raises(ValueError, match=re.escape(
            f"degree_bound must be an int, not {bound!r}")):
        verify(rs, bound)
    assert not rs._prod and not rs._nf and not rs._antipode
    assert not rs._delta and not rs._to_path

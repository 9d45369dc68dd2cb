import copy
import math
import pickle
import re
from fractions import Fraction

import pytest

from hopfpath import (
    CHAIN_GRADED, CHAIN_Q1, CHAIN_ROOT, CYCLE_DEFORM, CYCLE_GRADED,
    CYCLE_HALF, TYPE_ONE_CHAIN, TYPE_ONE_CYCLE,
    CoalgElement, PBWMonomial, chain_graded, chain_path, chain_q1,
    chain_root, check_confluence, classify_iso, cycle_deform, cycle_graded,
    cycle_half, cycle_path, cyclotomic_context, descriptor_from_dict,
    descriptor_to_dict, multiply, multiply_alg, normal_form, parse_word,
    chain_kind, cycle_kind,
    path_to_pbw, pbw_image, pbw_to_path, presentation_of, q_factorial,
    root_of_unity, simple_pointed_catalog, structure_rows, type_one_chain,
    type_one_cycle,
    verify_antipode, verify_degeneration, verify_hopf, GradedHopfParams,
    HopfFamilyDescriptor,
)

CTX12 = cyclotomic_context(12)


def rule_map(desc):
    rs = presentation_of(desc)
    return {lhs: rhs for lhs, rhs in rs.rules}


def test_descriptor_validation():
    ctx = cyclotomic_context(4)
    i = root_of_unity(ctx, 4)
    with pytest.raises(ValueError, match="order\\(q\\) must equal n"):
        cycle_deform(8, i, 1)
    with pytest.raises(ValueError, match="q\\^n = 1"):
        cycle_graded(3, i)
    with pytest.raises(ValueError, match="order\\(q\\) = n/2"):
        cycle_half(6, -ctx.one(), 1)
    with pytest.raises(ValueError, match="order\\(q\\) = n/2"):
        cycle_half(2, -ctx.one(), 1)
    with pytest.raises(ValueError, match="root of unity"):
        chain_root(ctx.from_rational(2), 1)
    with pytest.raises(ValueError, match="q = 1"):
        chain_q1(ctx, 1).__class__(CHAIN_Q1, None, i, ctx.one())
    with pytest.raises(ValueError, match="order > 1"):
        type_one_cycle(4, ctx.one(), 1)
    # a bool is an int instance but no cycle length: it once built a
    # descriptor that failed later, in the basis change
    with pytest.raises(ValueError, match="positive integer n"):
        cycle_graded(True, ctx.one())


def test_graded_families_refuse_a_deformation_parameter():
    ctx = cyclotomic_context(3)
    w = root_of_unity(ctx, 3)
    for family, n in ((CYCLE_GRADED, 3), (CHAIN_GRADED, None)):
        with pytest.raises(ValueError, match="no deformation parameter"):
            cycle_graded(3, w).__class__(family, n, w, ctx.one())
    data = {"family": "cycle-graded", "n": 3, "qOrder": 3, "lambda": "1"}
    with pytest.raises(ValueError, match="no deformation parameter"):
        descriptor_from_dict(data)
    # at a zero parameter the descriptor round-trips to an equal value
    desc = descriptor_from_dict(dict(data, **{"lambda": "0"}))
    assert descriptor_from_dict(descriptor_to_dict(desc)) == desc
    assert desc.is_graded and not cycle_deform(3, w, 0).is_graded


def test_the_integer_reading_is_refused_off_cycle_half():
    data = {"family": "cycle-deform", "n": 4, "qOrder": 4, "lambda": 1,
            "coeffReading": "integer"}
    with pytest.raises(ValueError, match="applies to cycle-half only"):
        descriptor_from_dict(data)
    desc = descriptor_from_dict(dict(data, family="cycle-half", n=8))
    assert desc.half_coeff == "integer"
    assert descriptor_from_dict(descriptor_to_dict(desc)) == desc


def test_param_normalization():
    ctx = cyclotomic_context(2)
    d1 = chain_q1(ctx, 5)
    assert d1.param == ctx.one()
    assert any("rescaled" in note for note in d1.notes)
    d2 = type_one_cycle(2, -ctx.one(), 3)
    assert d2.param == ctx.one()
    assert classify_iso(d1, chain_q1(ctx, 1))


def test_descriptors_are_frozen_and_survive_copy_and_pickle():
    ctx = cyclotomic_context(4)
    z = root_of_unity(ctx, 4)
    descs = (cycle_deform(4, z, 2), chain_q1(ctx, 5), chain_graded(z),
             cycle_half(4, z ** 2, 1, "integer"))
    for desc in descs:
        for twin in (copy.copy(desc), copy.deepcopy(desc),
                     pickle.loads(pickle.dumps(desc))):
            assert type(twin) is type(desc)
            assert twin == desc and hash(twin) == hash(desc)
            assert (twin.d, twin.path_kind, twin.notes, repr(twin)) \
                == (desc.d, desc.path_kind, desc.notes, repr(desc))
        assert desc.path_kind == (chain_kind() if desc.is_chain
                                  else cycle_kind(desc.n))
        # the path kind takes no part in comparison or hashing either
        other = copy.copy(desc)
        object.__setattr__(other, "path_kind", ("cycle", 99))
        assert other == desc and hash(other) == hash(desc)
        for name in ("family", "param", "notes", "_d", "path_kind",
                     "label"):
            with pytest.raises(AttributeError, match=f"^cannot assign to "
                                                     f"field '{name}'$"):
                setattr(desc, name, None)
        with pytest.raises(AttributeError):
            del desc.family
    # notes and d take no part in comparison
    assert chain_q1(ctx, 5) == chain_q1(ctx, 1)
    assert hash(chain_q1(ctx, 5)) == hash(chain_q1(ctx, 1))
    assert chain_q1(ctx, 5).notes != chain_q1(ctx, 1).notes
    assert repr(chain_q1(ctx, 1)) == (
        "HopfFamilyDescriptor(family='chain-q1', n=None, q=Scalar('1', N=4), "
        "param=Scalar('1', N=4), half_coeff='factorial', notes=())")


def test_equal_descriptors_hash_equal_from_a_hash_computed_once(
        monkeypatch):
    ctx = cyclotomic_context(4)
    z = root_of_unity(ctx, 4)
    for desc in (cycle_deform(4, z, 2), chain_q1(ctx, 5), chain_graded(z),
                 cycle_half(4, z ** 2, 1, "integer"),
                 type_one_cycle(4, z ** 2, 3)):
        twin = HopfFamilyDescriptor(desc.family, desc.n, desc.q, desc.param,
                                    desc.half_coeff, notes=("a note",))
        assert twin == desc and hash(twin) == hash(desc)
        # a pickle from another process carries that process's str
        # hashes; unpickling hashes afresh
        stale = copy.copy(desc)
        object.__setattr__(stale, "_hash", ~hash(desc))
        assert hash(pickle.loads(pickle.dumps(stale))) == hash(desc)
    # hashing a built descriptor hashes none of its fields again
    first, second = cycle_deform(4, z, 2), cycle_deform(4, z, 2)
    hashed = []
    scalar_hash = type(z).__hash__
    monkeypatch.setattr(type(z), "__hash__",
                        lambda x: hashed.append(x) or scalar_hash(x))
    assert {first: 1}[second] == 1
    assert not hashed


def test_taft_style_rules():
    ctx = cyclotomic_context(2)
    rules = rule_map(cycle_graded(2, -ctx.one()))
    assert rules["hh"] == (("", ctx.one()),)
    assert rules["aa"] == ()
    assert rules["ha"] == (("ah", -ctx.one()),)
    assert rules["ap"] == (("pa", ctx.one()),)
    assert rules["hp"] == (("ph", ctx.one()),)


def test_cycle_deform_commutator_rule():
    w = root_of_unity(CTX12, 3)
    rules = rule_map(cycle_deform(3, w, 1))
    assert rules["ap"] == (("pa", CTX12.one()), ("a", CTX12.one()))
    assert rules["aaa"] == ()


def test_type_one_rules():
    ctx = cyclotomic_context(2)
    rules = rule_map(type_one_cycle(4, -ctx.one(), 1))
    assert set(rules) == {"hhhh", "ha", "aa"}
    assert rules["aa"] == (("", ctx.one()), ("hh", -ctx.one()))
    assert rules["ha"] == (("ah", -ctx.one()),)


def test_half_deform_rules_at_d2():
    ctx = cyclotomic_context(2)
    rules = rule_map(cycle_half(4, -ctx.one(), 1))
    # commutator coefficient mu (1 - q) / (d-1)!_q = 2 at d = 2, q = -1
    two = ctx.from_rational(2)
    assert rules["ap"] == (("pa", ctx.one()), ("a", two), ("ahh", two))
    assert rules["aa"] == (("", ctx.one()), ("hh", -ctx.one()))


def test_chain_root_rules():
    ctx = cyclotomic_context(2)
    q = -ctx.one()
    lam = ctx.from_rational(3)
    rules = rule_map(chain_root(q, 3))
    assert rules["hH"] == (("", ctx.one()),)
    assert rules["Ha"] == (("aH", q.inverse()),)
    assert rules["hp"] == (("ph", ctx.one()), ("h", lam), ("hhh", -lam))
    assert rules["Hp"] == (("pH", ctx.one()), ("H", -lam), ("h", lam))
    # group-action deformation forces the matching commutator term
    assert rules["ap"] == (("pa", ctx.one()), ("a", lam))


def test_chain_q1_rules():
    ctx = cyclotomic_context(1)
    rules = rule_map(chain_q1(ctx, 1))
    assert rules["ha"] == (("ah", ctx.one()), ("h", ctx.one()),
                           ("hh", -ctx.one()))
    assert rules["Ha"] == (("aH", ctx.one()), ("", ctx.one()),
                           ("H", -ctx.one()))


def test_pbw_monomial_hash_is_cached_and_consistent():
    m = PBWMonomial(1, 2, -3)
    assert m == PBWMonomial(1, 2, -3) and m is not PBWMonomial(1, 2, -3)
    assert hash(m) == hash(PBWMonomial(1, 2, -3)) == hash((1, 2, -3))
    assert m != PBWMonomial(1, 2, 3)
    assert repr(m) == "PBWMonomial(k=1, j=2, i=-3)"


def test_parse_word():
    assert parse_word("a p a h^3") == "apahhh"
    assert parse_word("g e g^-2") == "haHH"
    assert parse_word("p^2 a") == "ppa"
    with pytest.raises(ValueError):
        parse_word("x y")


def test_normal_form_examples():
    w = root_of_unity(CTX12, 3)
    desc = cycle_deform(3, w, 1)
    nf = normal_form(desc, "ap")
    assert nf.coefficient(PBWMonomial(1, 1, 0)) == CTX12.one()
    assert nf.coefficient(PBWMonomial(0, 1, 0)) == CTX12.one()
    assert len(nf.terms) == 2
    # h^n reduces to 1
    assert normal_form(desc, "hhh") == presentation_of(desc).one()
    # half-order case, mu = 1, d = 2
    ctx2 = cyclotomic_context(2)
    desch = cycle_half(4, -ctx2.one(), 1)
    nf = normal_form(desch, "ap")
    assert nf.coefficient(PBWMonomial(1, 1, 0)) == 1
    assert nf.coefficient(PBWMonomial(0, 1, 0)) == 2
    assert nf.coefficient(PBWMonomial(0, 1, 2)) == 2


def test_multiply_alg_examples():
    w = root_of_unity(CTX12, 3)
    desc = cycle_deform(3, w, 1)
    rs = presentation_of(desc)
    a = rs.normal_form("a")
    asq = multiply_alg(desc, a, a)
    assert multiply_alg(desc, asq, a).is_zero()
    one = rs.one()
    y = normal_form(desc, "pah")
    assert multiply_alg(desc, one, y) == y
    # a p a = p a^2 + a^2 after two commutator steps
    apa = normal_form(desc, "apa")
    assert apa.coefficient(PBWMonomial(1, 2, 0)) == 1
    assert apa.coefficient(PBWMonomial(0, 2, 0)) == 1
    assert len(apa.terms) == 2


def test_normal_form_independent_of_strategy():
    # reduce an ambiguous word by hand along two different first steps
    from hopfpath import resolution_difference
    w = root_of_unity(CTX12, 3)
    rs = presentation_of(cycle_deform(3, w, 1))
    # word a^3 p: kill a^3 first vs commute the trailing ap first
    idx_nil = next(k for k, (lhs, _) in enumerate(rs.rules) if lhs == "aaa")
    idx_comm = next(k for k, (lhs, _) in enumerate(rs.rules) if lhs == "ap")
    assert resolution_difference(rs, "aaap", (0, idx_nil),
                                 (2, idx_comm)).is_zero()


def test_rewrite_steps_within_quadratic_bound():
    # steps counts rewrite applications on a cold cache; the reduction
    # DAG is memoized, so the quadratic-per-scale budget holds even for
    # branching right-hand sides
    ctx2 = cyclotomic_context(2)
    cases = [
        (cycle_deform(4, root_of_unity(cyclotomic_context(4), 4), 2), 4, 4),
        (cycle_half(4, -ctx2.one(), 1), 4, 2),
        (chain_root(-ctx2.one(), 1), 4, 2),
        (chain_q1(cyclotomic_context(1), 1), 4, 1),
    ]
    words = ["hhhhhh", "apah", "aapp", "hhhaap", "apapap",
             "aaapphh", "hhhhaaaapp", "haha", "aahh"]
    for desc, n, d in cases:
        rs = presentation_of(desc)
        for word in words:
            if "p" not in rs.letters:
                word = word.replace("p", "a")
            if desc.is_chain:
                word = word.replace("hhhh", "hhHH")
            rs._nf.clear()
            _, steps = rs.reduce_word(word)
            assert steps <= len(word) ** 2 * n * d, (desc.label(), word, steps)
        rs._nf.clear()


def test_every_rule_decreases_word_order():
    ctx2 = cyclotomic_context(2)
    descs = [
        cycle_graded(4, root_of_unity(cyclotomic_context(4), 4)),
        cycle_graded(3, CTX12.one()),
        cycle_deform(4, root_of_unity(cyclotomic_context(4), 4), 1),
        cycle_half(4, -ctx2.one(), 1),
        chain_graded(CTX12.from_rational(2)),
        chain_q1(cyclotomic_context(1), 1),
        chain_root(-ctx2.one(), 1),
        type_one_cycle(4, -ctx2.one(), 1),
        type_one_chain(-ctx2.one(), 1),
    ]
    for desc in descs:
        rs = presentation_of(desc)
        for lhs, rhs in rs.rules:
            for word, _ in rhs:
                assert rs.word_key(word) < rs.word_key(lhs)


def all_test_descriptors(max_n=6, params=(0, 1, 2)):
    out = []
    for n in range(1, max_n + 1):
        ctxn = cyclotomic_context(n)
        zn = root_of_unity(ctxn, n)
        for t in range(n):
            out.append(cycle_graded(n, zn ** t))
        if n >= 2:
            for lam in params:
                out.append(cycle_deform(n, zn, lam))
        if n % 2 == 0 and n >= 4:
            d = n // 2
            ctxd = cyclotomic_context(d)
            for mu in params:
                out.append(cycle_half(n, root_of_unity(ctxd, d), mu))
        for d in range(2, n + 1):
            if n % d == 0:
                ctxd = cyclotomic_context(d)
                for mu in (0, 1):
                    out.append(type_one_cycle(n, root_of_unity(ctxd, d), mu))
    ctx1 = cyclotomic_context(1)
    out.append(chain_graded(ctx1.from_rational(2)))
    out.append(chain_graded(ctx1.one()))
    for lam in (0, 1):
        out.append(chain_q1(ctx1, lam))
    for d in range(2, max_n + 1):
        ctxd = cyclotomic_context(d)
        qd = root_of_unity(ctxd, d)
        out.append(chain_graded(qd))
        for lam in params:
            out.append(chain_root(qd, lam))
        for mu in (0, 1):
            out.append(type_one_chain(qd, mu))
    return out


@pytest.mark.parametrize("desc", all_test_descriptors(4, params=(0, 2)),
                         ids=lambda d: d.label())
def test_confluence_families(desc):
    bound = 3 * (desc.n or 4)
    rep = check_confluence(presentation_of(desc), bound)
    assert rep.passed, rep.summary()


def test_pbw_count_matches_prediction():
    ctx = cyclotomic_context(3)
    w3 = root_of_unity(ctx, 3)
    desc = cycle_graded(6, -w3)  # order 6 root on the 6-cycle
    rep = check_confluence(presentation_of(desc))
    # the unbounded audit stands in for the count at any weight
    audit = rep.checks[0]
    assert (audit.name, audit.passed) \
        == ("irreducible words are exactly the PBW words", True)
    # k = 0 layer: monomials a^j h^i with j < d, i < n
    monos = presentation_of(desc).normal_monomials(18)
    assert len([m for m in monos if m.k == 0]) == 6 * 6


def _brute_force_basis(rs, bound, window):
    """Every word p^k a^j h^i of weight <= bound that
    ``_parse_normal_word`` accepts, ordered by weight, then j, then the
    position of i in 0..n-1 (cycles) or in ``window`` (chains)."""
    exponents = range(rs.h_order) if rs.h_order is not None else window
    found = []
    for j in range(bound + 1):
        for k in range(bound + 1):
            for i in exponents:
                word = "p" * k + "a" * j + ("h" * i if i >= 0 else "H" * -i)
                mono = rs._parse_normal_word(word)
                if mono is not None and rs.word_weight(word) <= bound:
                    found.append((rs.word_weight(word), mono))
    found.sort(key=lambda wm: wm[0])  # stable: j, then i, within a weight
    return found


def test_the_presentation_enumerates_exactly_its_normal_words():
    from test_acceptance import _family_sweep
    for desc in [*_family_sweep(), simple_pointed_catalog(1)[0]]:
        rs = presentation_of(desc)
        for window in ((0,), range(-2, 3)):
            basis = _brute_force_basis(rs, 12, window)
            for bound in range(13):
                monos = [m for w, m in basis if w <= bound]
                assert rs.normal_monomials(bound, window) == monos, \
                    (desc.label(), bound)
                pairs = [(x, y) for x in monos for y in monos
                         if rs.monomial_weight(x) + rs.monomial_weight(y)
                         <= bound]
                assert list(rs.monomial_pairs(bound, window)) == pairs, \
                    (desc.label(), bound)
                assert rs.pair_count(bound, window) == len(pairs)


@pytest.mark.parametrize("desc", [
    cycle_graded(1, CTX12.one()),
    cycle_graded(4, root_of_unity(CTX12, 4)),
    cycle_deform(3, root_of_unity(CTX12, 3), 1),
    cycle_half(4, -CTX12.one(), 1),
    type_one_cycle(4, -CTX12.one(), 1),
    chain_graded(CTX12.from_rational(2)),
    chain_q1(CTX12, 1),
    chain_root(-CTX12.one(), 1),
    type_one_chain(root_of_unity(CTX12, 3), 1),
], ids=lambda d: d.label())
def test_a_system_without_a_descriptor_gets_the_same_audit(desc):
    from hopfpath.verifier import _trial_system
    bound = 3 * (desc.n or 4)
    system = _trial_system(desc, {}, "no terms")
    trial = check_confluence(system, bound)
    classified = check_confluence(presentation_of(desc), bound)
    assert [(c.name, c.passed) for c in trial.checks] \
        == [(c.name, c.passed) for c in classified.checks]
    assert trial.checks[0].name \
        == "irreducible words are exactly the PBW words"
    # the coproduct and antipode verdicts read only the presentation
    for verify in (verify_hopf, verify_antipode):
        trial = verify(system, 6)
        classified = verify(presentation_of(desc), 6)
        assert [(c.name, c.passed) for c in trial.checks] \
            == [(c.name, c.passed) for c in classified.checks]
    # the graded layer is the descriptor's
    with pytest.raises(ValueError, match="no descriptor"):
        verify_degeneration(system, 6)


def test_pbw_to_path_examples():
    w = root_of_unity(CTX12, 3)
    desc = cycle_graded(3, w)
    out = pbw_to_path(desc, PBWMonomial(0, 1, 2))
    assert out == CoalgElement.from_path(CTX12, cycle_path(3, 2, 1))
    out = pbw_to_path(desc, PBWMonomial(1, 2, 0))
    assert out == CoalgElement.from_path(CTX12, cycle_path(3, 0, 5), 1 + w)
    desc1 = cycle_graded(4, CTX12.one())
    out = pbw_to_path(desc1, PBWMonomial(0, 3, 0))
    assert out == CoalgElement.from_path(CTX12, cycle_path(4, 0, 3), 6)
    # the divided-power exponent carries the plain factorial
    desc2 = cycle_graded(2, -CTX12.one())
    out = pbw_to_path(desc2, PBWMonomial(2, 0, 0))
    assert out == CoalgElement.from_path(CTX12, cycle_path(2, 0, 4), 2)


def test_path_to_pbw_round_trip():
    cases = [
        (cycle_graded(3, root_of_unity(CTX12, 3)), cycle_path(3, 1, 5)),
        (cycle_graded(4, CTX12.one()), cycle_path(4, 2, 3)),
        (chain_graded(CTX12.from_rational(2)), chain_path(-2, 3)),
        (chain_graded(-CTX12.one()), chain_path(1, 4)),
    ]
    for desc, path in cases:
        elt = path_to_pbw(desc, path)
        assert pbw_image(desc, elt) \
            == CoalgElement.from_path(desc.ctx, path)


def test_pbw_deformed_families_generator_level_only():
    ctx = cyclotomic_context(4)
    desc = cycle_deform(4, root_of_unity(ctx, 4), 1)
    assert pbw_to_path(desc, PBWMonomial(0, 0, 2)) \
        == CoalgElement.from_path(ctx, cycle_path(4, 2, 0))
    assert pbw_to_path(desc, PBWMonomial(1, 0, 0)) \
        == CoalgElement.from_path(ctx, cycle_path(4, 0, 4))
    with pytest.raises(ValueError, match="generator-level"):
        pbw_to_path(desc, PBWMonomial(1, 1, 0))
    with pytest.raises(ValueError, match="generator-level"):
        path_to_pbw(desc, cycle_path(4, 0, 1))


@pytest.mark.parametrize("n,order", [(3, 3), (4, 4), (4, 2), (6, 3), (4, 1)])
def test_basis_change_is_algebra_map(n, order):
    # rewrite-engine products transported through the path identification
    # must reproduce the closed product formula
    ctxn = cyclotomic_context(order)
    q = root_of_unity(ctxn, order)
    desc = cycle_graded(n, q)
    rs = presentation_of(desc)
    params = GradedHopfParams.cycle(n, q)
    monos = rs.normal_monomials(2 * n)
    for x in monos:
        fx = pbw_to_path(desc, x)
        for y in monos:
            if rs.monomial_weight(x) + rs.monomial_weight(y) > 2 * n:
                continue
            lhs = pbw_image(desc, multiply_alg(desc, rs.monomial(x),
                                               rs.monomial(y)))
            rhs = multiply(params, fx, pbw_to_path(desc, y))
            assert lhs == rhs, (x, y)


def test_classify_iso_examples():
    w = root_of_unity(CTX12, 3)
    assert classify_iso(cycle_deform(3, w, 1), cycle_deform(3, w, 2))
    assert not classify_iso(cycle_deform(3, w, 1), cycle_deform(3, w, 0))
    ctx2 = cyclotomic_context(2)
    q2 = -ctx2.one()
    assert not classify_iso(chain_root(q2, 1), chain_root(q2, 2))
    assert classify_iso(chain_root(q2, 1), chain_root(q2, 1))
    # graded cycles: same q
    assert classify_iso(cycle_graded(3, w), cycle_graded(3, w))
    assert not classify_iso(cycle_graded(3, w), cycle_graded(3, w * w))
    # cross-family is never isomorphic
    assert not classify_iso(cycle_graded(3, w), cycle_deform(3, w, 0))


def test_classify_iso_is_equivalence():
    w = root_of_unity(CTX12, 3)
    sample = [cycle_deform(3, w, lam) for lam in
              (0, 1, 2, Fraction(1, 2))]
    for a in sample:
        assert classify_iso(a, a)
        for b in sample:
            assert classify_iso(a, b) == classify_iso(b, a)
            for c in sample:
                if classify_iso(a, b) and classify_iso(b, c):
                    assert classify_iso(a, c)


def test_simple_pointed_catalog():
    cat2 = simple_pointed_catalog(2)
    labels = {d.label() for d in cat2}
    assert "type-one-cycle, n=2, q=-1, mu=0" in labels
    assert "type-one-cycle, n=2, q=-1, mu=1" in labels
    assert "chain-q1, q=1, lambda=1" in labels
    assert all(d.family != CYCLE_DEFORM for d in cat2)
    cat4 = simple_pointed_catalog(4)
    assert cat4[0].family == CYCLE_GRADED and cat4[0].n == 1
    # n = 4 hosts three nontrivial roots: order 2, and two of order 4
    tc4 = [d for d in cat4 if d.family == TYPE_ONE_CYCLE and d.n == 4]
    assert len(tc4) == 6
    ta = [d for d in cat4 if d.family == TYPE_ONE_CHAIN]
    # root orders 2, 3, 4 give 1 + 2 + 2 primitive roots, mu in {0, 1}
    assert len(ta) == 10


@pytest.mark.parametrize("max_n", [9, 3000, 100000])
def test_the_catalog_refuses_its_conductor_at_the_first_order_past_it(max_n):
    with pytest.raises(ValueError) as info:
        simple_pointed_catalog(max_n)
    assert str(info.value) == ("the lcm of the requested orders exceeds the "
                               "maximum conductor 1000 at order 9")
    assert len(str(info.value)) < 200


def test_descriptor_json_round_trip():
    ctx2 = cyclotomic_context(2)
    descs = [
        cycle_graded(3, root_of_unity(CTX12, 3) ** 2),
        cycle_deform(4, root_of_unity(cyclotomic_context(4), 4), 2),
        cycle_half(4, -ctx2.one(), 1),
        chain_graded(CTX12.from_rational(2)),
        chain_q1(cyclotomic_context(1), 1),
        chain_root(-ctx2.one(), Fraction(1, 2)),
        type_one_chain(-ctx2.one(), 1),
    ]
    for desc in descs:
        data = descriptor_to_dict(desc)
        back = descriptor_from_dict(data, desc.ctx)
        assert back.family == desc.family
        assert back.n == desc.n
        assert back.q == desc.q
        assert back.param == desc.param


@pytest.mark.parametrize("bound", [2.0, 2.5, "2", True, Fraction(2), None],
                         ids=repr)
def test_structure_rows_bound_must_be_an_int(bound):
    # 2.0 and 2.5 died with a TypeError from range, "2" with one from
    # ``<``, and True was read as the bound 1; each is now refused before
    # the presentation is even looked up
    desc = cycle_deform(3, root_of_unity(cyclotomic_context(3), 3), 1)
    before = presentation_of.cache_info()
    with pytest.raises(ValueError, match=re.escape(
            f"weight_bound must be an int, not {bound!r}")):
        structure_rows(desc, bound)
    assert presentation_of.cache_info() == before
    assert len(structure_rows(desc, 2)) == presentation_of(desc).pair_count(2)

"""The coproduct and antipode memos live on the interned presentation."""

from hypothesis import given, strategies as st

from hopfpath import (
    Lin, PBWMonomial, chain_q1, chain_root, coproduct, cycle_deform,
    cycle_half, cyclotomic_context, generator_coproducts, presentation_of,
    root_of_unity, simple_pointed_catalog, type_one_cycle, verify_antipode,
    verify_degeneration, verify_hopf,
)
from hopfpath import verifier
from hopfpath.verifier import _antipode_mono, _delta_word, _monomials

from test_acceptance import _family_sweep


MINUS_ONE = -cyclotomic_context(2).one()
DESCS = [
    cycle_deform(4, root_of_unity(cyclotomic_context(4), 4), 1),
    cycle_half(4, MINUS_ONE, 1),
    type_one_cycle(4, MINUS_ONE, 1),
    chain_q1(cyclotomic_context(1), 1),
    chain_root(root_of_unity(cyclotomic_context(3), 3), 2),
]


def reference_generators(desc):
    """The generator coproducts, written out from their formulas."""
    rs = presentation_of(desc)
    ctx, square, one = rs.ctx, (rs, rs), rs.ctx.one()

    def m(k, j, i):
        return PBWMonomial(k, j, i if desc.is_chain else i % desc.n)

    out = {"h": Lin(ctx, square, {(m(0, 0, 1), m(0, 0, 1)): one})}
    if desc.is_chain:
        out["H"] = Lin(ctx, square, {(m(0, 0, -1), m(0, 0, -1)): one})
    out["a"] = Lin(ctx, square, {(m(0, 1, 0), m(0, 0, 0)): one,
                                 (m(0, 0, 1), m(0, 1, 0)): one})
    if "p" in rs.letters:
        d = desc.d
        terms = {(m(1, 0, 0), m(0, 0, 0)): one, (m(0, 0, d), m(1, 0, 0)): one}
        for l in range(1, d):
            terms[(m(0, d - l, l), m(0, l, 0))] = (
                rs.qfact.fact(d - l) * rs.qfact.fact(l)).inverse()
        out["p"] = Lin(ctx, square, terms)
    return out


def fold(desc, word):
    """delta(word) as the product of the generator coproducts, letter by
    letter from the left."""
    rs = presentation_of(desc)
    gen = generator_coproducts(desc)
    unit = PBWMonomial(0, 0, 0)
    out = Lin(rs.ctx, (rs, rs), {(unit, unit): rs.ctx.one()})
    for sym in word:
        out = out * gen[sym]
    return out


def test_generator_coproducts_keep_their_keys_and_values():
    for desc in DESCS:
        gen, ref = generator_coproducts(desc), reference_generators(desc)
        assert list(gen) == list(ref)
        for sym in ref:
            assert gen[sym] == ref[sym]
            assert gen[sym] is _delta_word(presentation_of(desc), sym)


def test_one_cycle_coproduct_is_multiplicative():
    # h = 1 on the 1-cycle, so delta(a) must not carry the key h^1
    desc = simple_pointed_catalog(1)[0]
    rs = presentation_of(desc)
    a, h = rs.generator("a"), rs.generator("h")
    assert h == rs.one()
    assert coproduct(desc, a) == coproduct(desc, h) * coproduct(desc, a)


def test_generator_coproduct_keys_are_normal_monomials():
    for desc in [*_family_sweep(), simple_pointed_catalog(1)[0]]:
        rs = presentation_of(desc)
        for sym, delta in generator_coproducts(desc).items():
            for pair in delta.terms:
                for mono in pair:
                    assert rs.normal_form(mono.word()) == rs.monomial(mono), \
                        (desc.label(), sym, mono)
                    if not desc.is_chain:
                        assert 0 <= mono.i < desc.n


def test_antipode_memo_keys_are_normal_monomials():
    # h = 1 on the 1-cycle, so S(h) must be memoized under 1, not h^1
    desc = simple_pointed_catalog(1)[0]
    assert verify_antipode(desc, 4).passed
    rs = presentation_of(desc)
    for mono in rs._antipode:
        assert rs.normal_form(mono.word()) == rs.monomial(mono), mono
        assert 0 <= mono.i < desc.n, mono


def _words(desc):
    return st.text(alphabet=sorted(presentation_of(desc).letters),
                   max_size=5)


@given(st.sampled_from(DESCS).flatmap(
    lambda desc: st.tuples(st.just(desc), _words(desc), _words(desc))))
def test_delta_word_is_multiplicative(case):
    desc, u, v = case
    rs = presentation_of(desc)
    whole = _delta_word(rs, u + v)
    assert whole == _delta_word(rs, u) * _delta_word(rs, v)
    assert whole == fold(desc, u + v)


def _mutable_globals():
    return {name: repr(value) for name, value in vars(verifier).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}


def test_memos_live_on_the_interned_presentation():
    assert not hasattr(verifier, "_DELTA_CACHE")
    before = _mutable_globals()
    ctx = cyclotomic_context(4)
    first = cycle_deform(4, root_of_unity(ctx, 4), 1)
    second = cycle_deform(4, root_of_unity(ctx, 4), 1)
    assert first == second and first is not second
    rs = presentation_of(first)
    assert presentation_of(second) is rs

    delta = _delta_word(presentation_of(first), "pa")
    assert _delta_word(presentation_of(second), "pa") is delta
    assert rs._delta["pa"] is delta
    mono = PBWMonomial(1, 1, 2)
    anti = _antipode_mono(presentation_of(first), mono)
    assert _antipode_mono(presentation_of(second), mono) is anti
    assert rs._antipode[mono] is anti

    assert verify_hopf(second, 4).passed
    assert _mutable_globals() == before


def test_cache_clear_rebuilds_equal_values():
    desc = cycle_half(4, MINUS_ONE, 1)
    words = ["", "h", "a", "p", "pa", "aap", "hpah", "ppa"]
    monos = [PBWMonomial(k, j, i) for k in range(2) for j in range(2)
             for i in range(4)]
    old = presentation_of(desc)
    deltas = {w: _delta_word(old, w).terms for w in words}
    antis = {m: _antipode_mono(old, m).terms for m in monos}

    presentation_of.cache_clear()
    rs = presentation_of(desc)
    assert rs is not old and not rs._delta and not rs._antipode
    for w in words:
        assert _delta_word(rs, w).terms == deltas[w]
    for m in monos:
        assert _antipode_mono(rs, m).terms == antis[m]


def _middle_word(j, i, k, j2):
    """The middle a^j h^i p^k a^j2 that a product table entry reduces."""
    return "a" * j + PBWMonomial(0, 0, i).word() + "p" * k + "a" * j2


def test_verify_hopf_fills_the_product_table():
    desc = chain_root(root_of_unity(cyclotomic_context(3), 3), 2)
    rs = presentation_of(desc)
    rs._prod.clear()
    assert verify_hopf(desc, 6).passed
    assert rs._prod
    for middle, terms in rs._prod.items():
        assert terms == rs.reduce_word(_middle_word(*middle))[0], middle


def test_cache_clear_frees_the_product_table():
    desc = cycle_half(4, MINUS_ONE, 1)
    monos = [PBWMonomial(k, j, i) for k in range(2) for j in range(2)
             for i in range(4)]
    old = presentation_of(desc)
    products = {(x, y): dict(old.mono_product(x, y))
                for x in monos for y in monos}
    entries = {middle: dict(terms) for middle, terms in old._prod.items()}
    assert entries

    presentation_of.cache_clear()
    rs = presentation_of(desc)
    assert rs is not old and not rs._prod
    for (x, y), terms in products.items():
        assert rs.mono_product(x, y) == terms
    assert rs._prod == entries
    assert len(rs._prod) == len({(x.j, x.i, y.k, y.j) for x, y in products})


def test_product_table_holds_one_entry_per_middle():
    desc = DESCS[0]  # cycle-deform, n = 4
    bound = 8
    rs = presentation_of(desc)
    rs._prod.clear()
    assert verify_degeneration(desc, bound).passed
    monos = _monomials(desc, bound)
    middles = {(x.j, x.i, y.k, y.j) for x in monos for y in monos
               if rs.monomial_weight(x) + rs.monomial_weight(y) <= bound}
    assert len(rs._prod) == len(middles)
    assert set(rs._prod) == middles


def test_products_do_not_alias_the_table():
    desc = cycle_half(4, MINUS_ONE, 1)
    rs = presentation_of(desc)
    x, y = rs.normal_form("aph"), rs.normal_form("ap")
    prod = rs.multiply(x, y)
    expected = dict(prod.terms)
    prod.terms.clear()
    assert rs.multiply(x, y).terms == expected

    dx, dy = _delta_word(rs, "ap"), _delta_word(rs, "pa")
    square = dx * dy
    expected = dict(square.terms)
    square.terms.clear()
    assert (dx * dy).terms == expected

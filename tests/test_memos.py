"""The coproduct and antipode memos live on the interned presentation."""

import gc
import weakref

from hypothesis import given, strategies as st

import pytest

from hopfpath import (
    Lin, PBWMonomial, chain_graded, chain_kind, chain_q1, chain_root,
    coproduct, cycle_deform, cycle_graded, cycle_half, cyclotomic_context,
    generator_coproducts, path_preimage, path_to_pbw, pbw_image, pbw_to_path,
    presentation_of, root_of_unity, simple_pointed_catalog, type_one_cycle,
    verify_antipode, verify_degeneration, verify_hopf,
)
from hopfpath.quiver import Path
from hopfpath import graded, verifier
from hopfpath.verifier import (
    _CHAIN_WINDOW, _antipode_generators, _antipode_mono, _antipode_word,
    _delta_word, _monomials, _trial_system,
)

from test_acceptance import _family_sweep
from test_mutants import _one_term_mutants


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
            # a copy of the memo entry, which the caller may change
            memo = _delta_word(presentation_of(desc), sym)
            assert gen[sym] == memo and gen[sym] is not memo


def test_one_cycle_coproduct_is_multiplicative():
    # h = 1 on the 1-cycle, so delta(a) must not carry the key h^1
    desc = simple_pointed_catalog(1)[0]
    rs = presentation_of(desc)
    a, h = rs.normal_form("a"), rs.normal_form("h")
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


def test_antipode_memo_stores_a_miss_under_the_table_monomial():
    # the caller's monomial is an equal copy, not the table's object
    presentation_of.cache_clear()
    rs = presentation_of(DESCS[0])
    _antipode_mono(rs, PBWMonomial(1, 1, 2))
    assert (1, 1, 2) in rs._antipode
    assert all(rs._monos.get(tuple(mono)) is mono for mono in rs._antipode)


def _terms(x):
    """The terms of an element in insertion order, with their values."""
    return list(x.terms.items())


def _prefix_fold(rs, word):
    """S of a word multiplied in another order, from its first letter:
    S(w x) = S(x) S(w).  Equal values on a confluent rule set."""
    out = rs.one()
    for sym in word:
        out = rs.multiply(rs._antipode[rs.letter(sym)], out)
    return out


def _memo_monomials_against_the_fold(rs):
    """Fill the antipode memo from the heaviest normal monomial of weight
    at most 2 p_weight (at least 4) down, then check every entry against
    the reversed fold of its word, ``_antipode_word``, in terms, values
    and order.  Return the monomials and the number of them on which the
    prefix fold differs from the memo."""
    monos = rs.normal_monomials(max(2 * rs.p_weight, 4), _CHAIN_WINDOW)
    for mono in reversed(monos):
        _antipode_mono(rs, mono)
    differ = 0
    for mono in monos:
        memo = _terms(rs._antipode[mono])
        assert memo == _terms(_antipode_word(rs, mono.word())), \
            (rs.name, mono)
        differ += memo != _terms(_prefix_fold(rs, mono.word()))
    return monos, differ


def test_the_antipode_memo_equals_the_reversed_fold_on_the_sweep():
    count = 0
    for desc in _family_sweep():
        monos, _ = _memo_monomials_against_the_fold(
            _trial_system(desc, {}, desc.label()))
        count += len(monos)
    assert count == 2_934  # 91 families


def test_the_antipode_memo_equals_the_reversed_fold_on_mutants():
    # on a rule set that is not confluent the order of the products
    # shows in the values, so the comparison tells the prefix fold apart
    # (on 1,155 monomials; on the sweep, on the order of 16)
    solved = differ = 0
    for desc, terms in _one_term_mutants(3):
        rs = _trial_system(desc, terms, "mutant")
        try:
            _antipode_generators(rs)
        except ArithmeticError:
            continue
        solved += 1
        differ += _memo_monomials_against_the_fold(rs)[1]
    assert solved == 327 and differ > 0  # 2 of 329 have no antipode


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
    assert verify_antipode(second, 4).passed
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
    assert verify_antipode(desc, 6).passed
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
    # a group-like right factor (k' = j' = 0) is a shift, with no entry
    assert len(rs._prod) == len({(x.j, x.i, y.k, y.j) for x, y in products
                                 if y.k + y.j > 0})


def test_product_table_holds_one_entry_per_middle():
    desc = DESCS[0]  # cycle-deform, n = 4
    bound = 8
    rs = presentation_of(desc)
    rs._prod.clear()
    assert verify_degeneration(desc, bound).passed
    monos = _monomials(desc, bound)
    middles = {(x.j, x.i, y.k, y.j) for x in monos for y in monos
               if rs.monomial_weight(x) + rs.monomial_weight(y) <= bound
               and y.k + y.j > 0}
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


def _memo_monomials(rs):
    """Every monomial in the keys and terms of the presentation's memos."""
    for terms in [*rs._nf.values(), *rs._prod.values()]:
        yield from terms
    for delta in rs._delta.values():
        for pair in delta.terms:
            yield from pair
    for mono, anti in rs._antipode.items():
        yield mono
        yield from anti.terms
    yield from rs._to_path
    for mono, _ in rs._to_pbw.values():
        yield mono


def test_memos_hold_only_the_monomial_table_objects():
    presentation_of.cache_clear()
    for desc in [*DESCS, simple_pointed_catalog(1)[0]]:
        assert verify_hopf(desc, 6).passed
        assert verify_antipode(desc, 6).passed
        rs = presentation_of(desc)
        strays = [m for m in _memo_monomials(rs)
                  if rs._monos.get((m.k, m.j, m.i)) is not m]
        assert not strays, (desc.label(), strays)


# -- the PBW <-> path identification ----------------------------------------------

Z4 = root_of_unity(cyclotomic_context(4), 4)
GRADED = [cycle_graded(4, Z4), cycle_graded(4, -Z4 * Z4),
          chain_graded(cyclotomic_context(3).from_rational(2))]


def _basis_change_calls(desc):
    """One call of each public basis change on ``desc``, as thunks."""
    rs = presentation_of(desc)
    mono = rs.interned(1, 1, 1) if rs.p_weight else rs.interned(0, 3, 1)
    path = pbw_to_path(desc, mono).sorted_terms()[0][0]
    x = rs.monomial(mono, 3) + rs.one()
    return [lambda: pbw_to_path(desc, mono), lambda: path_to_pbw(desc, path),
            lambda: pbw_image(desc, x),
            lambda: path_preimage(desc, pbw_image(desc, x))]


def test_identification_memos_live_on_the_interned_presentation():
    desc = GRADED[0]
    rs = presentation_of(desc)
    mono, path = PBWMonomial(1, 1, 2), Path(("cycle", 4), 2, 5)
    assert pbw_to_path(desc, mono).terms == {path: rs.qfact.fact(1)}
    assert rs._to_path[mono] == (path, rs.qfact.fact(1))
    assert path_to_pbw(desc, path).terms == {mono: rs.qfact.inverse(1, 1)}
    assert rs._to_pbw[path] == (mono, rs.qfact.inverse(1, 1))
    equal = cycle_graded(4, Z4)
    assert equal is not desc and presentation_of(equal) is rs

    presentation_of.cache_clear()
    fresh = presentation_of(desc)
    assert fresh is not rs and not fresh._to_path and not fresh._to_pbw
    assert pbw_to_path(desc, mono).terms == {path: rs.qfact.fact(1)}
    assert fresh._to_path == {mono: rs._to_path[mono]}


def test_identification_memos_hold_only_the_monomial_table_objects():
    presentation_of.cache_clear()
    for desc in [*DESCS, simple_pointed_catalog(1)[0]]:
        assert verify_degeneration(desc, 6).passed
    for desc in GRADED:
        for call in _basis_change_calls(desc):
            call()
        # an equal copy, not the table's object
        pbw_to_path(desc, PBWMonomial(0, 1, 1))
    graded = {presentation_of(d) for d in GRADED} | {
        presentation_of(verifier._graded_sibling(d)) for d in DESCS}
    for rs in graded:
        assert rs._to_path and rs._to_pbw, rs.name
        strays = [m for m in _memo_monomials(rs)
                  if rs._monos.get((m.k, m.j, m.i)) is not m]
        assert not strays, (rs.name, strays)


@pytest.mark.parametrize("desc", GRADED, ids=lambda d: d.label())
def test_basis_change_results_do_not_alias_the_memos(desc):
    for call in _basis_change_calls(desc):
        first = call()
        expected = dict(first.terms)
        assert expected
        first.terms.clear()
        assert call().terms == expected
        call().add_term(next(iter(expected)), desc.ctx.one())
        assert call().terms == expected


def test_refused_identifications_are_not_memoized():
    deformed = cycle_deform(4, Z4, 1)
    no_p = chain_graded(cyclotomic_context(3).from_rational(2))
    no_p_deformed = DESCS[2:4]
    cases = [
        (lambda: pbw_to_path(deformed, PBWMonomial(1, 1, 0)),
         "generator-level"),
        (lambda: path_to_pbw(deformed, Path(("cycle", 4), 0, 1)),
         "generator-level"),
        (lambda: pbw_to_path(no_p, PBWMonomial(1, 0, 0)),
         "no divided-power generator"),
        # deformed families without p refuse it too, rather than map it
        # to the vertex at 0
        (lambda: pbw_to_path(no_p_deformed[0], PBWMonomial(1, 0, 0)),
         "no divided-power generator"),
        (lambda: pbw_to_path(no_p_deformed[1], PBWMonomial(1, 0, 0)),
         "no divided-power generator"),
        (lambda: path_to_pbw(GRADED[0], Path(chain_kind(), 0, 1)),
         "family's quiver"),
    ]
    for call, message in cases * 2:
        with pytest.raises(ValueError, match=message):
            call()
    assert (1, 1, 0) not in presentation_of(deformed)._to_path
    assert not presentation_of(deformed)._to_pbw
    for desc in (no_p, *no_p_deformed):
        assert (1, 0, 0) not in presentation_of(desc)._to_path
    assert Path(chain_kind(), 0, 1) not in presentation_of(GRADED[0])._to_pbw


# -- the graded params a degeneration verdict shares ---------------------------

Z3 = root_of_unity(cyclotomic_context(3), 3)
ONE_SIBLING = [cycle_deform(3, Z3, lam) for lam in (0, 1, 2)] \
    + [type_one_cycle(3, Z3, 1)]


def _recording_fills(monkeypatch):
    """Record each path product formed, through the graded kernel or the
    degeneration verdict, as (params, a, b)."""
    formed = []
    fill = graded._fill

    def recording(params, i, j):
        formed.append((params, params._paths[i], params._paths[j]))
        return fill(params, i, j)

    monkeypatch.setattr(graded, "_fill", recording)
    monkeypatch.setattr(verifier, "_fill", recording)
    return formed


def test_degeneration_verdicts_share_the_graded_siblings_params(monkeypatch):
    # the four descriptors have one graded sibling, whose presentation
    # keeps one GradedHopfParams across their verdicts: each report is
    # the one the verdict gives on a freshly cleared cache, cold or warm,
    # each path product is formed once for all of them, and a second
    # verdict on the sibling forms none
    bound = 6
    expected = []
    for desc in ONE_SIBLING:
        presentation_of.cache_clear()
        expected.append(verify_degeneration(desc, bound))
    assert all(rep.passed for rep in expected)
    gdesc = verifier._graded_sibling(ONE_SIBLING[0])
    assert {verifier._graded_sibling(desc) for desc in ONE_SIBLING} == {gdesc}

    presentation_of.cache_clear()
    formed = _recording_fills(monkeypatch)
    assert presentation_of(gdesc)._graded is None
    per_verdict = []
    for _ in ("cold", "warm"):
        for desc, rep in zip(ONE_SIBLING, expected):
            start = len(formed)
            assert verify_degeneration(desc, bound) == rep
            per_verdict.append(len(formed) - start)
    params = presentation_of(gdesc)._graded
    assert params is not None
    assert formed and {p for p, _, _ in formed} == {params}
    pairs = [(a, b) for _, a, b in formed]
    assert len(pairs) == len(set(pairs))
    # cycle-deform's first verdict forms its products, the two after it
    # meet the same image paths; every warm verdict forms none
    assert per_verdict[0] and per_verdict[1:3] == [0, 0]
    assert per_verdict[4:] == [0, 0, 0, 0]

    # cache_clear() frees the params with the presentation that keeps them
    kept = weakref.ref(params)
    del params, formed[:]
    presentation_of.cache_clear()
    gc.collect()
    assert kept() is None
    assert presentation_of(gdesc)._graded is None

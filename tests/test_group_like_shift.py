"""Group-like right factors against the product-table code they replaced.

A normal monomial x = p^k a^j h^i times a group-like h^e is x h^e, its h
exponent moved by e (modulo n on a cycle), and delta(w h^e) is delta(w)
with both factors of every term moved by e.  ``RewriteSystem.mono_product``
and ``accumulate`` form x h^e through ``RewriteSystem.h_shift`` and read no
product-table entry, and ``verifier._delta_word`` shifts delta(w) instead
of multiplying it by delta(h) or delta(H).  The ``_reference_*`` functions
below are the versions that read the trivial middle a^j h^i of such a
product from the table and folded every letter of a word as a
tensor-square product.  Both must give the same keys in the same order,
the same coefficients, no zero coefficient, and monomials that are the
presentation's monomial-table objects: on every presentation of the
acceptance sweep and the 1-cycle (chain words with H included), within
criterion 06's weight bound, on cold and warm tables, and on the fixed
one-term mutants.
"""

import pytest

from hopfpath import (
    Lin, chain_graded, chain_q1, chain_root, cycle_deform,
    cycle_graded, cyclotomic_context, presentation_of, root_of_unity,
    simple_pointed_catalog,
)
from hopfpath.verifier import (
    _CHAIN_WINDOW, _delta_word, _generator_delta, _monomials, _trial_system,
)

from test_acceptance import _family_sweep, _hopf_bound
from test_mutants import _one_term_mutants
from test_product_table import _fresh


def _reference_middle(rs, j, i, k, j2):
    """The normal form of the middle a^j h^i p^k a^j2 from the table; the
    trivial middle a^j h^i (k = j2 = 0), which the table no longer
    keeps, is the entry it used to hold."""
    mid = rs._prod.get((j, i, k, j2))
    if mid is None:
        mid = rs._middle(j, i, k, j2) if k + j2 \
            else {rs.interned(0, j, i): rs.ctx.one()}
    return mid


def _reference_mono_product(rs, x, y):
    """``RewriteSystem.mono_product``, every factor through the table."""
    mid = _reference_middle(rs, x.j, x.i, y.k, y.j)
    if not x.k and not y.i:
        return mid
    k, i, n, monos = x.k, y.i, rs.h_order, rs._monos
    out = {}
    for m, c in mid.items():
        e = m.i + i
        key = (k + m.k, m.j, e if n is None else e % n)
        out[monos.get(key) or rs.interned(*key)] = c
    return out


def _reference_accumulate(rs, acc, x, y):
    """``RewriteSystem.accumulate``, every factor through the table."""
    monos, n = rs._monos, rs.h_order
    for ma, ca in x.items():
        k, j, i = ma
        for mb, cb in y.items():
            mid = _reference_middle(rs, j, i, mb.k, mb.j)
            c = ca * cb
            shift = mb.i
            for m, v in mid.items():
                if k or shift:
                    e = m.i + shift
                    key = (k + m.k, m.j, e if n is None else e % n)
                    m = monos.get(key) or rs.interned(*key)
                old = acc.get(m)
                acc[m] = c * v if old is None else old + c * v
    return acc


def _reference_square_product(rs, a, b):
    """The tensor-square product of ``Lin``, through
    ``_reference_mono_product``."""
    acc = {}
    for (l1, r1), c1 in a.terms.items():
        for (l2, r2), c2 in b.terms.items():
            left = _reference_mono_product(rs, l1, l2)
            if not left:
                continue
            right = _reference_mono_product(rs, r1, r2)
            if not right:
                continue
            c = c1 * c2
            for ml, cl in left.items():
                ccl = c * cl
                for mr, cr in right.items():
                    key = (ml, mr)
                    old = acc.get(key)
                    acc[key] = ccl * cr if old is None else old + ccl * cr
    return Lin(rs.ctx, (rs, rs), acc)


def _generators(rs):
    """The generator coproducts of rs from their formulas, built on a
    copy with empty memos, so that no memo entry of rs stands in."""
    fresh = _fresh(rs)
    return {sym: _generator_delta(fresh, sym) for sym in rs.letters}


def _reference_delta_word(rs, word, memo, generators):
    """``verifier._delta_word`` as the letter fold
    delta(w s) = delta(w) * delta(s), every prefix kept in ``memo``."""
    start = len(word)
    while start and word[:start] not in memo:
        start -= 1
    out = memo.get(word[:start])
    if out is None:
        unit = rs.interned(0, 0, 0)
        out = memo[""] = Lin(rs.ctx, (rs, rs), {(unit, unit): rs.ctx.one()})
    for end in range(start + 1, len(word) + 1):
        out = _reference_square_product(rs, out, generators[word[end - 1]])
        memo[word[:end]] = out
    return out


def _same_terms(rs, new, ref):
    """Equal keys in the same order, equal values, no zero, and every
    monomial the monomial table's own object."""
    assert list(new.items()) == list(ref.items())
    monos = rs._monos
    for key, c in new.items():
        assert not c.is_zero(), key
        for m in key if type(key) is tuple else (key,):
            assert monos.get(tuple(m)) is m, m


def _group_likes(rs):
    """The group-likes h^e the sweep multiplies by: e over 0..n-1 on a
    cycle, over the chain window on a chain."""
    return [rs.group_like(e) for e in rs._i_values(_CHAIN_WINDOW)]


def _check_against_the_reference(rs, monos):
    """Compare delta of every monomial in ``monos``, then x h^e and its
    accumulation for every x in ``monos`` and every group-like h^e,
    first on the cold tables of rs, then on the warm ones.  Return the
    number of comparisons."""
    words = [m.word() for m in monos]
    generators, ref_memo = _generators(rs), {}
    checks = 0
    for warm in (False, True):
        if warm:
            rs._delta.clear()  # the product table stays filled
        for word in words:
            new = _delta_word(rs, word)
            ref = _reference_delta_word(rs, word, ref_memo, generators)
            assert new.space == (rs, rs)
            _same_terms(rs, new.terms, ref.terms)
            checks += 1
        one, two = rs.ctx.one(), rs.ctx.scalar(2)
        for x in monos:
            for g in _group_likes(rs):
                new = rs.mono_product(x, g)
                _same_terms(rs, new, _reference_mono_product(rs, x, g))
                assert new == {rs.h_shift(x, g.i): one}
                _same_terms(rs, rs.accumulate({}, {x: two}, {g: two}),
                            _reference_accumulate(rs, {}, {x: two}, {g: two}))
                checks += 1
        # whole elements: a group-like and a table factor together, and a
        # sum that cancels (the accumulator keeps it as a zero)
        x = {m: rs.ctx.scalar(t + 1) for t, m in enumerate(monos)}
        for g in _group_likes(rs):
            y = {g: one, rs.letter("a"): -one}
            cancel = rs.h_shift(monos[-1], g.i)
            start = {cancel: -rs.ctx.scalar(len(monos))}
            new = rs.accumulate(dict(start), x, y)
            ref = _reference_accumulate(rs, dict(start), x, y)
            assert list(new.items()) == list(ref.items())
            checks += 1
    assert not any(k + j2 == 0 for _, _, k, j2 in rs._prod)
    return checks


def test_group_like_shift_matches_the_table_on_the_sweep():
    monos = checks = 0
    for desc in [*_family_sweep(), simple_pointed_catalog(1)[0]]:
        rs = _fresh(presentation_of(desc))
        bounded = _monomials(rs, _hopf_bound(desc))
        monos += len(bounded)
        checks += _check_against_the_reference(rs, bounded)
    assert (monos, checks) == (4_169, 51_214)  # 92 presentations


def test_group_like_shift_matches_the_table_on_the_interned_presentations():
    # the shared presentations, warm from whatever ran before
    for desc in [cycle_deform(6, root_of_unity(cyclotomic_context(6), 6), 1),
                 chain_root(root_of_unity(cyclotomic_context(3), 3), 2)]:
        rs = presentation_of(desc)
        _check_against_the_reference(rs, _monomials(rs, _hopf_bound(desc)))


def test_group_like_shift_matches_the_table_on_mutants():
    count = 0
    for desc, terms in _one_term_mutants(3):
        rs = _trial_system(desc, terms, "mutant")
        _check_against_the_reference(
            rs, rs.normal_monomials(max(2 * rs.p_weight, 4), _CHAIN_WINDOW))
        count += 1
    assert count == 329


def test_chain_words_with_H_shift_down():
    rs = presentation_of(chain_q1(cyclotomic_context(1), 1))
    delta = _delta_word(rs, "aHH")
    ref = _reference_delta_word(rs, "aHH", {}, _generators(rs))
    _same_terms(rs, delta.terms, ref.terms)
    assert {(l.i, r.i) for l, r in delta.terms} == {(-2, -2), (-1, -2)}


# -- a letter that is not a generator ---------------------------------------------

Z4 = root_of_unity(cyclotomic_context(4), 4)


@pytest.mark.parametrize("desc, word, letter", [
    (cycle_deform(4, Z4, 1), "aH", "H"),
    (cycle_graded(4, Z4), "hH", "H"),
    (chain_q1(cyclotomic_context(1), 1), "Hp", "p"),
    (chain_graded(cyclotomic_context(3).from_rational(2)), "ahx", "x"),
], ids=["cycle-aH", "cycle-hH", "chain-Hp", "chain-ahx"])
def test_a_stray_letter_is_refused_not_shifted(desc, word, letter):
    rs = presentation_of(desc)
    message = f"letter {letter!r} is not a generator"
    with pytest.raises(ValueError, match=message):
        _delta_word(rs, word)
    with pytest.raises(ValueError, match=message):
        rs.normal_form(word)
    assert word not in rs._delta and letter not in rs._delta

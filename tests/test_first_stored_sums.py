"""The rewriting layer against the engine it replaced.

``RewriteSystem.reduce_word`` (its combine step), ``_short_middle``,
``presentations._resolve_at`` and ``graded.tensor_multiply`` store a
key's first term as it is instead of adding it to zero.
``_parse_normal_word`` reads the shape p^k a^j (h^i | H^i) by stripping
runs of letters instead of matching a regular expression.
``reduce_word`` takes a word that ends in a run of group-likes to its
stem's normal form shifted, and ``_middle`` fills a middle a^j h^i ...
with i != 0 by conjugating its i = 0 entry, wherever the rules allow it;
both then form fewer words and entries than the letter-by-letter
rewriting they replace.  The ``_reference_*`` functions below are that
engine: it adds every term to zero, rewrites every word, folds every
middle from its longest prefix with a key function called on every
probe, and keeps its own tables.  Every entry that either engine's
tables hold must be the other engine's entry for the same key: the same
keys in the same order, the same values and no zero coefficient.  This
holds on every presentation of the acceptance sweep and the 1-cycle,
on the one-term mutants, which are not confluent, and on hand-built
systems where no shortcut applies.
"""

import random
import re
from itertools import islice, product

import pytest
from hypothesis import given, strategies as st

from hopfpath import (
    GradedHopfParams, Lin, RewriteSystem, chain_q1, chain_root, comultiply,
    cycle_graded, cyclotomic_context, enumerate_paths, presentation_of,
    root_of_unity, simple_pointed_catalog,
)
from hopfpath.graded import _mul_path_raw, tensor_multiply
from hopfpath.presentations import _ambiguities, _resolve_at
from hopfpath.verifier import _CHAIN_WINDOW, _trial_system

from test_acceptance import _family_sweep
from test_mutants import _one_term_mutants
from test_product_table import _fresh


def _reference_parse(rs, word):
    """``RewriteSystem._parse_normal_word`` through ``re.fullmatch``, as
    a (k, j, i) tuple."""
    m = re.fullmatch(r"(p*)(a*)(h*|H*)", word)
    if not m:
        return None
    k = len(m.group(1))
    j = len(m.group(2))
    tail = m.group(3)
    i = len(tail) if not tail or tail[0] == "h" else -len(tail)
    if (rs.a_bound is not None and j >= rs.a_bound) \
            or (rs.h_order is not None and i >= rs.h_order) \
            or (rs.p_weight == 0 and k):
        return None
    return (k, j, i)


def _reference_reduce_word(rs, word, nf):
    """``RewriteSystem.reduce_word`` over the table ``nf``, adding each
    child's term to zero."""
    cached = nf.get(word)
    if cached is not None:
        return cached, 0
    zero = rs.ctx.zero()
    steps = 0
    stack = [word]
    while stack:
        w = stack[-1]
        if w in nf:
            stack.pop()
            continue
        match = rs._find_match(w)
        if match is None:
            shape = _reference_parse(rs, w)
            assert shape is not None, f"irreducible word {w!r}"
            nf[w] = {rs.interned(*shape): rs.ctx.one()}
            stack.pop()
            continue
        pos, ridx = match
        lhs, rhs = rs.rules[ridx]
        prefix, suffix = w[:pos], w[pos + len(lhs):]
        children = [prefix + rword + suffix for rword, _ in rhs]
        pending = [cw for cw in children if cw not in nf]
        if pending:
            stack.extend(pending)
            continue
        out = {}
        for child, (_, rcoeff) in zip(children, rhs):
            for m, c in nf[child].items():
                out[m] = out.get(m, zero) + rcoeff * c
        nf[w] = {m: v for m, v in out.items() if not v.is_zero()}
        steps += 1
        stack.pop()
    return nf[word], steps


def _reference_short_middle(rs, j, i, x, nf):
    """``RewriteSystem._short_middle``, adding each product to zero."""
    zero = rs.ctx.zero()
    acc = {}
    hx, _ = _reference_reduce_word(rs, rs.group_like(i).word() + x, nf)
    for m1, c1 in hx.items():
        word = "a" * j + "p" * m1.k + "a" * m1.j
        for m2, c2 in _reference_reduce_word(rs, word, nf)[0].items():
            mono = rs.interned(m2.k, m2.j, rs._h_exp(m2.i + m1.i))
            acc[mono] = acc.get(mono, zero) + c1 * c2
    return {m: c for m, c in acc.items() if not c.is_zero()}


def _reference_resolve_at(rs, word, pos, ridx, nf):
    """``presentations._resolve_at``, adding each term to zero."""
    lhs, rhs = rs.rules[ridx]
    prefix, suffix = word[:pos], word[pos + len(lhs):]
    acc = {}
    zero = rs.ctx.zero()
    for rword, rcoeff in rhs:
        terms, _ = _reference_reduce_word(rs, prefix + rword + suffix, nf)
        for m, c in terms.items():
            acc[m] = acc.get(m, zero) + rcoeff * c
    return Lin(rs.ctx, rs, acc)


def _reference_middle(rs, j, i, k, j2, memo, nf):
    """``RewriteSystem._middle`` over the tables ``memo`` and ``nf``, for
    every i: the fold from the longest prefix in ``memo``, its prefix
    keys from a key function called on every probe, each letter's
    product added to zero, every prefix kept."""
    zero = rs.ctx.zero()
    tail = "p" * k + "a" * j2

    def key(f):  # the prefix a^j h^i tail[:f]
        return (j, i, min(f, k), max(f - k, 0))

    f = len(tail)
    while f > 1 and key(f) not in memo:
        f -= 1
    out = memo.get(key(f))
    if out is None:
        out = memo[key(f)] = _reference_short_middle(rs, j, i, tail[:f], nf)
    for f in range(f + 1, len(tail) + 1):
        y = rs.letter(tail[f - 1])
        acc = {}
        for ma, ca in out.items():
            mid = memo.get((ma.j, ma.i, y.k, y.j))
            if mid is None:
                mid = _reference_middle(rs, ma.j, ma.i, y.k, y.j, memo, nf)
            for m, v in mid.items():
                m = rs.interned(ma.k + m.k, m.j, m.i)
                acc[m] = acc.get(m, zero) + ca * v
        out = memo[key(f)] = {m: c for m, c in acc.items()
                              if not c.is_zero()}
    return out


def _reference_tensor_multiply(params, tx, ty):
    """``graded.tensor_multiply``, adding each product to zero."""
    square = (params.kind, params.kind)
    acc = {}
    zero = params.ctx.zero()
    for (al, ar), ca in tx.terms.items():
        for (bl, br), cb in ty.terms.items():
            left = _mul_path_raw(params, al, bl)
            if left is None:
                continue
            right = _mul_path_raw(params, ar, br)
            if right is None:
                continue
            lp, lc = left
            rp, rc = right
            key = (lp, rp)
            acc[key] = acc.get(key, zero) + (ca * cb) * (lc * rc)
    return Lin(params.ctx, square, acc)


def _same_terms(new, ref):
    """Equal keys in the same order, equal values and no zero."""
    assert list(new.items()) == list(ref.items())
    assert not any(c.is_zero() for c in new.values())


def _tie_tables(new, ref, memo, nf):
    """Every entry of the new engine's tables against the reference's
    entry for the same key, and every entry of the reference's tables
    (``memo`` and ``nf``, over the cold copy ``ref``) against the new
    engine's, each side forming the entries it lacks.  Return the number
    of entries tied."""
    for key in list(new._prod):
        ref_entry = memo.get(key)
        if ref_entry is None:
            ref_entry = _reference_middle(ref, *key, memo, nf)
        _same_terms(new._prod[key], ref_entry)
    for key in list(memo):
        entry = new._prod.get(key)
        _same_terms(new._middle(*key) if entry is None else entry, memo[key])
    for word in list(new._nf):
        _same_terms(new._nf[word], _reference_reduce_word(ref, word, nf)[0])
    for word in list(nf):
        _same_terms(new.reduce_word(word)[0], nf[word])
    return len(memo) + len(nf)


def _presentations():
    return [presentation_of(d)
            for d in [*_family_sweep(), simple_pointed_catalog(1)[0]]]


# -- the reduction and its callers --------------------------------------------------

def _short_middles(rs):
    """The one-letter middles a^j h^i x, j below the a bound (at most 3)
    and i over 0..n-1 on a cycle or the chain window."""
    letters = [x for x in "ap" if x in rs.letters]
    return [(j, i, x) for j in range(min(rs.a_bound or 3, 3))
            for i in rs._i_values(_CHAIN_WINDOW) for x in letters]


def _check_the_reductions(rs):
    """Resolve every ambiguity and form every short middle of a cold
    copy of rs, new and reference side by side, then tie their tables.
    Return the number of comparisons and the number of entries tied."""
    rs, ref = _fresh(rs), _fresh(rs)
    nf, checks = {}, 0
    for word, left, right in _ambiguities(rs):
        for pos, ridx in (left, right):
            new = _resolve_at(rs, word, pos, ridx)
            old = _reference_resolve_at(ref, word, pos, ridx, nf)
            assert new.space is rs
            _same_terms(new.terms, old.terms)
            checks += 1
    for j, i, x in _short_middles(rs):
        _same_terms(rs._short_middle(j, i, x),
                    _reference_short_middle(ref, j, i, x, nf))
        checks += 1
    # a word reduced once more is a memo hit
    for word in list(rs._nf):
        assert rs.reduce_word(word) == (rs._nf[word], 0)
    return checks, _tie_tables(rs, ref, {}, nf)


def test_reductions_match_the_adding_code_on_the_sweep():
    checks, entries = map(sum, zip(*map(_check_the_reductions,
                                        _presentations())))
    assert (checks, entries) == (3_765, 5_004)  # 92 presentations


def test_reductions_match_the_adding_code_on_mutants():
    count = checks = entries = 0
    for desc, terms in _one_term_mutants(3):
        c, e = _check_the_reductions(_trial_system(desc, terms, "mutant"))
        count, checks, entries = count + 1, checks + c, entries + e
    assert (count, checks, entries) == (329, 11_788, 14_073)


def test_a_cancelled_sum_leaves_no_zero():
    # h p -> h a - a and h a -> a: the two children of h p both reduce
    # to a, and their terms cancel in the combine step
    rs = RewriteSystem(cyclotomic_context(1),
                       [("hp", [("ha", 1), ("a", -1)]), ("ha", [("a", 1)])],
                       p_weight=2, name="h p -> h a - a")
    nf = {}
    for word in ("hp", "hpa", "hhp"):
        new, steps = rs.reduce_word(word)
        assert (new, steps) == _reference_reduce_word(rs, word, nf)
        assert not any(c.is_zero() for c in new.values())
    assert rs._nf["hp"] == rs._nf["hpa"] == rs._nf["hhp"] == {}
    assert list(rs._nf) == list(nf)
    for word, entry in rs._nf.items():
        _same_terms(entry, nf[word])


# -- reading the normal shape -----------------------------------------------------------

def test_parse_matches_the_regular_expression():
    seen, words = set(), 0
    for rs in _presentations():
        # the parse reads only the letters, the p weight and the bounds
        shape = (rs.letters, rs.p_weight, rs.h_order, rs.a_bound)
        if shape in seen:
            continue
        seen.add(shape)
        rs = _fresh(rs)
        letters = sorted(rs.letters)
        for length in range(8):
            for word in map("".join, product(letters, repeat=length)):
                new, ref = rs._parse_normal_word(word), _reference_parse(rs, word)
                assert (None if new is None else tuple(new)) == ref, word
                assert new is None or rs._monos[ref] is new
                words += 1
    assert (len(seen), words) == (33, 158_715)


def test_parse_refuses_mixed_and_stray_tails():
    cycle = _fresh(presentation_of(simple_pointed_catalog(1)[0]))
    chain = _fresh(presentation_of(
        chain_root(root_of_unity(cyclotomic_context(3), 3), 1)))
    for rs in (cycle, chain):
        for word in ("hH", "Hh", "ahH", "paHh", "x", "ha", "hp", "aph",
                     "Hp", "phhH"):
            assert rs._parse_normal_word(word) is None
            assert _reference_parse(rs, word) is None
    assert tuple(chain._parse_normal_word("paHH")) == (1, 1, -2) \
        == _reference_parse(chain, "paHH")


# -- the prefix keys of a middle ----------------------------------------------------------

def _middles(rs, bound=6):
    """The middles a^j h^i p^k a^j2 with k + j2 > 0 and weight j + j2 +
    k * p_weight at most ``bound``, in a fixed shuffled order, so that a
    fold finds some prefixes filled and some not."""
    cap = rs.a_bound or bound + 1
    pw = rs.p_weight
    out = [(j, i, k, j2)
           for j in range(min(cap, bound + 1))
           for i in rs._i_values(_CHAIN_WINDOW)
           for k in range(bound // pw + 1 if pw else 1)
           for j2 in range(min(cap, bound + 1))
           if k + j2 and j + j2 + k * pw <= bound]
    random.Random(len(out)).shuffle(out)
    return out


def _check_the_middles(rs):
    """Fill the middles of a cold copy of rs in a shuffled order, new and
    reference side by side, then tie their tables.  Return the number of
    middles and the number of entries tied."""
    new, ref = _fresh(rs), _fresh(rs)
    memo, nf = {}, {}
    middles = _middles(rs)
    for middle in middles:
        _same_terms(new._middle(*middle),
                    _reference_middle(ref, *middle, memo, nf))
    return len(middles), _tie_tables(new, ref, memo, nf)


def test_middles_fill_the_table_like_the_key_function_on_the_sweep():
    count, entries = map(sum, zip(*map(_check_the_middles, _presentations())))
    assert (count, entries) == (6_404, 9_225)


def test_middles_fill_the_table_like_the_key_function_on_mutants():
    count = middles = entries = 0
    for desc, terms in _one_term_mutants(3):
        m, e = _check_the_middles(_trial_system(desc, terms, "mutant"))
        count, middles, entries = count + 1, middles + m, entries + e
    assert (count, middles, entries) == (329, 16_559, 28_535)


# -- group-likes by a shift, and where no shortcut applies ---------------------

def _hand_built(rules, n=None, **bounds):
    return RewriteSystem(cyclotomic_context(6), rules, h_order=n,
                         name="hand-built", **bounds)


def _fallbacks():
    """(system, runs, conjugated letters): systems where ``reduce_word``
    or ``_middle`` must rewrite letter by letter."""
    minus = -cyclotomic_context(2).one()
    z3, z6 = (root_of_unity(cyclotomic_context(d), d) for d in (3, 6))
    return [
        # hp -> ph + 2h - 2h^4: the p middles fold, the a middles conjugate
        (presentation_of(chain_root(z3, 2)), "hH", "a"),
        # ha -> ah + h - hh: every middle folds
        (presentation_of(chain_q1(cyclotomic_context(1), 1)), "hH", ""),
        # ha -> 2 zeta_6 ah on the 6-cycle: (2 zeta_6)^6 != 1
        (_hand_built([("h" * 6, [("", 1)]), ("ha", [("ah", 2 * z6)])], 6),
         "h", ""),
        # h -> 1 on a 2-cycle is no group-like rule h^2 -> 1
        (_hand_built([("h", [("", 1)]), ("ha", [("ah", -1)]), ("aa", [])],
                     2, a_bound=2), "", ""),
        # h^2 -> 1 + 1 is not exact
        (_trial_system(cycle_graded(2, minus), {"hh": [("", 1)]}, "mutant"),
         "", ""),
    ]


@pytest.mark.parametrize("case", range(5), ids=[
    "chain-root-lambda-2", "chain-q1-lambda-1", "ha-doubled",
    "lhs-h-on-2-cycle", "hh-extra-term"])
def test_without_the_rules_for_a_shortcut_the_letters_are_rewritten(case):
    rs, runs, letters = _fallbacks()[case]
    assert rs._run_letters() == runs
    assert "".join(rs._conjugations()) == letters
    rs = _fresh(rs)
    # a middle whose letters are not conjugated keeps its prefixes, and
    # a word that ends in h is matched against the rules when runs do
    # not shift
    x = next(x for x in "pa" if x in rs.letters and x not in letters)
    j2, k = (2, 0) if x == "a" else (0, 2)
    rs._middle(1, 1, k, j2)
    assert (1, 1, k // 2, j2 // 2) in rs._prod
    matched, find_match = [], rs._find_match
    rs._find_match = lambda word: matched.append(word) or find_match(word)
    rs.reduce_word("hah")
    assert ("hah" in matched) == (not runs)
    del rs._find_match
    _check_the_middles(rs)
    _check_the_reductions(rs)


def _outcome(rs, word, reduce):
    """The normal form's terms, or None when the word reaches an
    irreducible word that is not of PBW shape."""
    try:
        return list(reduce(rs, word)[0].items())
    except AssertionError:
        return None


def _either_engine(rs, word):
    """The new engine's and the reference's outcome on ``word``, each on
    a cold copy of rs."""
    return (_outcome(_fresh(rs), word, RewriteSystem.reduce_word),
            _outcome(_fresh(rs), word,
                     lambda ref, w: _reference_reduce_word(ref, w, {})))


def test_h_rules_that_are_left_hand_sides_or_stray_H_letters():
    # a -> h makes a a left-hand side; ha -> -ah still conjugates
    rs = _hand_built([("hh", [("", 1)]), ("ha", [("ah", -1)]),
                      ("a", [("h", 1)])], 2)
    assert (rs._run_letters(), list(rs._conjugations())) == ("h", ["a"])
    _check_the_middles(rs)
    _check_the_reductions(rs)
    # on a cycle H is no generator, and the parse reads a tail H^t as
    # h^-t: a stem holding H is rewritten, never shifted, since its
    # letters may vanish between the H and the run (a a -> 1 here)
    rs = _hand_built([("hh", [("", 1)]), ("ha", [("ah", -1)]),
                      ("aa", [("", 1)])], 2)
    assert rs._run_letters() == "h"
    for word in ("Haahh", "Haah", "aHh", "Hh", "haaHaah", "aaH"):
        new, ref = _either_engine(rs, word)
        assert new == ref, word
    assert _either_engine(rs, "Haahh")[0] == [((0, 0, -1), 1)]


def test_a_conjugated_middle_reduces_no_word():
    counted = 0
    for rs in _presentations():
        rs = _fresh(rs)
        conj = rs._conjugations()
        middles = [m for m in _middles(rs)
                   if (not m[2] or "p" in conj) and (not m[3] or "a" in conj)]
        for j, i, k, j2 in middles:
            rs._middle(j, 0, k, j2)
        before = set(rs._prod)
        calls = []
        reduce_word = rs.reduce_word
        rs.reduce_word = lambda word: calls.append(word) or reduce_word(word)
        for middle in middles:
            if middle[1]:
                rs._middle(*middle)
                counted += 1
        assert calls == [], rs.name
        # every conjugated entry is kept alone: no prefix of it is added
        assert rs._prod.keys() - before \
            <= {m for m in middles if m[1]}, rs.name
    assert counted == 4_714


def _systems_for_words():
    """The sweep's descriptors and every seventh one-term mutant, built
    when drawn: a presentation built at import would outlive a cleared
    ``presentation_of`` cache."""
    return [*_family_sweep(), *islice(_one_term_mutants(3), 0, None, 7)]


@given(st.data())
def test_a_trailing_run_shifts_the_stem_like_the_rewriter(data):
    case = data.draw(st.sampled_from(_systems_for_words()))
    rs = presentation_of(case) if not isinstance(case, tuple) \
        else _trial_system(*case, "mutant")
    letters = sorted(rs.letters)
    stem = data.draw(st.text(st.sampled_from(letters), max_size=6))
    run = data.draw(st.sampled_from("h" if rs.h_order else "hH")) \
        * data.draw(st.integers(1, 8))
    word = stem + run
    _same_terms(rs.reduce_word(word)[0],
                _reference_reduce_word(_fresh(rs), word, {})[0])


# -- the tensor-square product of paths ----------------------------------------------------

def test_tensor_products_match_the_adding_code():
    checks = 0
    for desc in _family_sweep():
        if not desc.is_graded:
            continue
        params = GradedHopfParams(desc.path_kind, desc.q)
        window = (-2, 2) if desc.n is None else None
        paths = enumerate_paths(params.kind, 2, window)
        deltas = [comultiply(Lin.from_path(params.ctx, p)) for p in paths]
        # sums of two coproducts, one with a coefficient -1, whose
        # products cancel among their terms
        elements = deltas + [
            deltas[t].copy().add_scaled(deltas[-1 - t], -1)
            for t in range(len(deltas))]
        for tx in elements:
            for ty in elements:
                new = tensor_multiply(params, tx, ty)
                ref = _reference_tensor_multiply(params, tx, ty)
                assert new.space == ref.space
                _same_terms(new.terms, ref.terms)
                checks += 1
    assert checks == 21_276

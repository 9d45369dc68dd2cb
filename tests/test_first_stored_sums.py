"""The rewriting layer's sums against the adding code they replaced.

``RewriteSystem.reduce_word`` (its combine step), ``_short_middle``,
``presentations._resolve_at`` and ``graded.tensor_multiply`` store a
key's first term as it is instead of adding it to zero.
``_parse_normal_word`` reads the shape p^k a^j (h^i | H^i) by stripping
runs of letters instead of matching a regular expression, and
``_middle`` lists its prefix keys once instead of calling a key
function on every probe.  The ``_reference_*`` functions below are the
versions that did those things the old way.  Both must give the same
keys in the same order, the same values, no zero coefficient and the
same tables, filled in the same order: on every presentation of the
acceptance sweep and the 1-cycle, and on the one-term mutants, which
are not confluent.
"""

import random
import re
from itertools import product

from hopfpath import (
    GradedHopfParams, Lin, RewriteSystem, chain_root, comultiply,
    cyclotomic_context, enumerate_paths, presentation_of, root_of_unity,
    simple_pointed_catalog,
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
            nf[w] = {rs.interned(*_reference_parse(rs, w)): rs.ctx.one()}
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


def _reference_middle(rs, j, i, k, j2):
    """``RewriteSystem._middle``, its prefix keys from a key function
    called on every probe."""
    memo, one = rs._prod, rs.ctx.one()
    tail = "p" * k + "a" * j2

    def key(f):  # the prefix a^j h^i tail[:f]
        return (j, i, min(f, k), max(f - k, 0))

    f = len(tail)
    while f > 1 and key(f) not in memo:
        f -= 1
    out = memo.get(key(f))
    if out is None:
        out = memo[key(f)] = rs._short_middle(j, i, tail[:f])
    for f in range(f + 1, len(tail) + 1):
        acc = rs.accumulate({}, out, {rs.letter(tail[f - 1]): one})
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


def _same_table(new, ref):
    """Equal keys filled in the same order, and equal entries."""
    assert list(new) == list(ref)
    for key, entry in new.items():
        _same_terms(entry, ref[key])


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
    copy of rs, new and reference side by side; the reduction tables
    must then be equal and filled in the same order.  Return the number
    of comparisons."""
    rs = _fresh(rs)
    nf, checks = {}, 0
    for word, left, right in _ambiguities(rs):
        for pos, ridx in (left, right):
            new = _resolve_at(rs, word, pos, ridx)
            ref = _reference_resolve_at(rs, word, pos, ridx, nf)
            assert new.space is rs
            _same_terms(new.terms, ref.terms)
            checks += 1
    for j, i, x in _short_middles(rs):
        _same_terms(rs._short_middle(j, i, x),
                    _reference_short_middle(rs, j, i, x, nf))
        checks += 1
    # a word reduced once more is a memo hit on both sides
    for word in list(nf):
        new, steps = rs.reduce_word(word)
        assert (new, steps) == _reference_reduce_word(rs, word, nf)
    _same_table(rs._nf, nf)
    return checks


def test_reductions_match_the_adding_code_on_the_sweep():
    checks = sum(_check_the_reductions(rs) for rs in _presentations())
    assert checks == 3_765  # 92 presentations


def test_reductions_match_the_adding_code_on_mutants():
    count = checks = 0
    for desc, terms in _one_term_mutants(3):
        checks += _check_the_reductions(_trial_system(desc, terms, "mutant"))
        count += 1
    assert (count, checks) == (329, 11_788)


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
    _same_table(rs._nf, nf)


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
    new, ref = _fresh(rs), _fresh(rs)
    middles = _middles(rs)
    for middle in middles:
        _same_terms(new._middle(*middle), _reference_middle(ref, *middle))
    _same_table(new._prod, ref._prod)
    _same_table(new._nf, ref._nf)
    return len(middles)


def test_middles_fill_the_table_like_the_key_function_on_the_sweep():
    count = sum(_check_the_middles(rs) for rs in _presentations())
    assert count == 6_404


def test_middles_fill_the_table_like_the_key_function_on_mutants():
    count = middles = 0
    for desc, terms in _one_term_mutants(3):
        middles += _check_the_middles(_trial_system(desc, terms, "mutant"))
        count += 1
    assert (count, middles) == (329, 16_559)


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

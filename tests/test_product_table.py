"""The product table against the rewriting engine.

``RewriteSystem.mono_product`` multiplies two normal monomials through
their middle, folded one letter at a time into the table.  For every
family of the acceptance sweep and every monomial pair within the
acceptance weight bound (chains on the h window -2..2), it must equal
the normal form of the concatenated word.  The generator powers
h^i * x^e, and every prefix their fold leaves in the table, must each
equal the normal form of their whole word.  The antipode convolutions
accumulate products into one dict, and must equal the sum of one
product of whole elements per coproduct term.  ``accumulate`` and the
tensor-square product read the table themselves; they must give the
keys, order and values of the loops through ``mono_product`` that they
replaced, and leave every table entry as it was.
"""

from hopfpath import (
    Lin, PBWMonomial, RewriteSystem, cycle_graded, cyclotomic_context,
    presentation_of, root_of_unity, simple_pointed_catalog,
)
from hopfpath.verifier import (
    _CHAIN_WINDOW, _antipode_mono, _convolutions, _delta_word, _monomials,
)

from test_acceptance import _family_sweep, _hopf_bound
from test_memos import _middle_word


def _pairs(desc):
    rs = presentation_of(desc)
    bound = _hopf_bound(desc)
    monos = _monomials(desc, bound)
    for x in monos:
        for y in monos:
            if rs.monomial_weight(x) + rs.monomial_weight(y) <= bound:
                yield x, y


def test_table_equals_the_normal_form_of_the_concatenated_word():
    pairs = 0
    for desc in _family_sweep():
        rs = presentation_of(desc)
        for x, y in _pairs(desc):
            pairs += 1
            expected, _ = rs.reduce_word(x.word() + y.word())
            assert rs.mono_product(x, y) == expected, (desc.label(), x, y)
    assert pairs == 158_017  # 91 families


def test_a_one_letter_entry_keeps_every_term():
    # h p -> a: the normal form of h p contains a, and the entry keeps it
    rs = RewriteSystem(cyclotomic_context(1), [("hp", [("a", 1)])],
                       p_weight=2, name="h p -> a")
    product = rs.mono_product(PBWMonomial(0, 0, 1), PBWMonomial(1, 0, 0))
    assert product == rs.reduce_word("hp")[0] == {PBWMonomial(0, 1, 0): 1}


def _fresh(rs):
    """A presentation with the rules of rs and empty memos."""
    return RewriteSystem(rs.ctx, rs.rules, p_weight=rs.p_weight,
                         h_order=rs.h_order, a_bound=rs.a_bound,
                         qfact=rs.qfact, name=rs.name)


def test_power_fold_equals_the_normal_form_of_the_whole_word():
    cases = 0
    for desc in [*_family_sweep(), simple_pointed_catalog(1)[0]]:
        rs = _fresh(presentation_of(desc))
        exponents = range(2 * max(rs.a_bound or 0, 3) + 1)
        for x in sorted(rs.letters & set("ap")):
            for i in range(desc.n) if desc.n is not None else range(-4, 5):
                h = rs.group_like(i)
                for e in exponents:
                    cases += 1
                    power = rs.interned(*((e, 0, 0) if x == "p"
                                          else (0, e, 0)))
                    expected, _ = rs.reduce_word(h.word() + x * e)
                    assert rs.mono_product(h, power) == expected, \
                        (desc.label(), i, x, e)
        for middle, terms in rs._prod.items():
            assert terms == rs.reduce_word(_middle_word(*middle))[0], \
                (desc.label(), middle)
    assert cases == 8_165


def _reference_convolutions(rs, delta):
    """m(S (x) id)delta and m(id (x) S)delta as one product of whole
    elements per term of delta, merged in through map_terms."""
    left = delta.map_terms(lambda uv: rs.multiply(
        _antipode_mono(rs, uv[0]), rs.monomial(uv[1])), rs)
    right = delta.map_terms(lambda uv: rs.multiply(
        rs.monomial(uv[0]), _antipode_mono(rs, uv[1])), rs)
    return left, right


def test_convolutions_equal_the_products_of_whole_elements():
    monos = 0
    for desc in _family_sweep():
        rs = presentation_of(desc)
        bound = 2 * desc.n if desc.n is not None else 8
        for mono in _monomials(rs, bound):
            monos += 1
            delta = _delta_word(rs, mono.word())
            assert _convolutions(rs, delta) \
                == _reference_convolutions(rs, delta), (desc.label(), mono)
    assert monos == 3_406


def _reference_accumulate(rs, acc, x, y):
    """The accumulate loop through ``mono_product``, each new key's sum
    started from zero."""
    zero = rs.ctx.zero()
    for ma, ca in x.items():
        for mb, cb in y.items():
            c = ca * cb
            for m, v in rs.mono_product(ma, mb).items():
                acc[m] = acc.get(m, zero) + c * v
    return acc


def _reference_square_product(x, y):
    """Lin.__mul__'s tensor-square loop through ``mono_product``, each
    new key's sum started from zero."""
    rs = x.space[0]
    zero = x.ctx.zero()
    acc = {}
    for (l1, r1), c1 in x.terms.items():
        for (l2, r2), c2 in y.terms.items():
            left = rs.mono_product(l1, l2)
            if not left:
                continue
            right = rs.mono_product(r1, r2)
            if not right:
                continue
            c = c1 * c2
            for ml, cl in left.items():
                ccl = c * cl
                for mr, cr in right.items():
                    key = (ml, mr)
                    acc[key] = acc.get(key, zero) + ccl * cr
    return Lin(x.ctx, x.space, acc)


def _table(rs):
    """The product table's entries, each as its list of terms."""
    return {key: list(terms.items()) for key, terms in rs._prod.items()}


def _loop_inputs(desc):
    """A fresh copy of the presentation, its normal monomials of weight
    at most 2 p_weight (at least 4) and the pairs of them whose weights
    sum to at most that bound."""
    rs = _fresh(presentation_of(desc))
    bound = max(2 * rs.p_weight, 4)
    monos = rs.normal_monomials(bound, _CHAIN_WINDOW)
    return rs, monos, list(rs.monomial_pairs(bound, _CHAIN_WINDOW))


def _accumulate_all(accumulate, rs, monos, pairs):
    """Every pair into one dict, then the first half of the pairs again
    with the opposite sign, then two whole elements."""
    ctx = rs.ctx
    acc = {}
    for n, (x, y) in enumerate(pairs):
        accumulate(rs, acc, {x: ctx.scalar(n % 5 + 1)}, {y: ctx.one()})
    for n, (x, y) in enumerate(pairs[:len(pairs) // 2]):
        accumulate(rs, acc, {x: ctx.scalar(-(n % 5 + 1))}, {y: ctx.one()})
    half = monos[:len(monos) // 2 + 1]
    accumulate(rs, acc, {m: ctx.scalar(n - 2) for n, m in enumerate(half)},
               {m: ctx.scalar(n + 1) for n, m in enumerate(half)})
    return list(acc.items())


def test_accumulate_equals_the_loop_through_mono_product():
    pairs = zeros = 0
    for desc in _family_sweep():
        rs, monos, mono_pairs = _loop_inputs(desc)
        ref = _fresh(rs)
        expected = _accumulate_all(_reference_accumulate, ref, monos,
                                   mono_pairs)
        # cold, the loop fills the table through _middle; warm, it reads it
        for _ in range(2):
            table = _table(rs)
            assert _accumulate_all(RewriteSystem.accumulate, rs, monos,
                                   mono_pairs) == expected, desc.label()
            if table:
                assert _table(rs) == table, desc.label()
        assert _table(rs) == _table(ref), desc.label()
        pairs += len(mono_pairs)
        zeros += sum(c.is_zero() for _, c in expected)
    # cancelled sums stay in the dict as zero coefficients
    assert (pairs, zeros > 0) == (72_864, True)


def test_the_tensor_square_product_equals_the_loop_through_mono_product():
    products = 0
    for desc in _family_sweep():
        rs, monos, mono_pairs = _loop_inputs(desc)
        deltas = {m: _delta_word(rs, m.word()) for m in monos}
        pairs = mono_pairs[::7]
        # the reference fills the table; the product must only read it
        expected = [list(_reference_square_product(deltas[x], deltas[y])
                         .terms.items()) for x, y in pairs]
        table = _table(rs)
        for (x, y), terms in zip(pairs, expected):
            assert list((deltas[x] * deltas[y]).terms.items()) == terms, \
                (desc.label(), x, y)
        assert _table(rs) == table, desc.label()
        products += len(pairs)
    assert products == 10_442


def test_a_cancelled_tensor_square_sum_is_dropped():
    # (h (x) 1 - h^2 (x) 1)(h (x) 1 + 1 (x) 1): the two h^2 (x) 1 cancel
    ctx = cyclotomic_context(3)
    rs = presentation_of(cycle_graded(3, root_of_unity(ctx, 3)))
    one, h, h2 = (rs.group_like(i) for i in range(3))
    x = Lin(ctx, (rs, rs), {(h, one): ctx.one(), (h2, one): -ctx.one()})
    y = Lin(ctx, (rs, rs), {(h, one): ctx.one(), (one, one): ctx.one()})
    product = x * y
    assert list(product.terms.items()) == list(
        _reference_square_product(x, y).terms.items())
    assert product.terms == {(h, one): ctx.one(), (one, one): -ctx.one()}

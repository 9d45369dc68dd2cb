"""The product table against the rewriting engine.

``RewriteSystem.mono_product`` multiplies two normal monomials through
their middle, folded one letter at a time into the table.  For every
family of the acceptance sweep and every monomial pair within the
acceptance weight bound (chains on the h window -2..2), it must equal
the normal form of the concatenated word.  The generator powers
h^i * x^e, and every prefix their fold leaves in the table, must each
equal the normal form of their whole word.  The antipode convolutions
accumulate products into one dict, and must equal the sum of one
product of whole elements per coproduct term.
"""

from hopfpath import (
    PBWMonomial, RewriteSystem, cyclotomic_context, presentation_of,
    simple_pointed_catalog,
)
from hopfpath.verifier import (
    _antipode_mono, _convolutions, _delta_word, _monomials,
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

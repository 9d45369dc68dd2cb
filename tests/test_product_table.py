"""The straightened product table against the rewriting engine.

``RewriteSystem.mono_product`` multiplies two normal monomials through
generator-power normal forms.  For every family of the acceptance sweep
and every monomial pair within the acceptance weight bound (chains on
the h window -2..2), it must equal the normal form of the concatenated
word.
"""

import pytest

from hopfpath import (
    PBWMonomial, RewriteSystem, cyclotomic_context, presentation_of,
)
from hopfpath.verifier import _monomials

from test_acceptance import _family_sweep, _hopf_bound


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


def test_a_misshapen_power_form_is_refused():
    # h p -> a: the normal form of h^i p^k' must contain no a
    bad = RewriteSystem(cyclotomic_context(1), [("hp", [("a", 1)])],
                        p_weight=2, name="misshapen")
    with pytest.raises(AssertionError, match="contains a"):
        bad.mono_product(PBWMonomial(0, 0, 1), PBWMonomial(1, 0, 0))

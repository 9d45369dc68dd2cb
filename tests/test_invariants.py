"""The descriptor's stored invariant, the shape of its presentation's
PBW basis and the presentation's q-factorial table, each against the
computation it replaced."""

import math

import pytest

from hopfpath import (
    CHAIN_GRADED, CHAIN_ROOT, CYCLE_DEFORM, CYCLE_GRADED, CYCLE_HALF,
    TYPE_ONE_CHAIN, TYPE_ONE_CYCLE, HopfFamilyDescriptor,
    chain_graded, chain_q1, chain_root, cycle_deform,
    cycle_graded, cycle_half, cyclotomic_context, descriptor_to_dict,
    path_preimage, pbw_image, presentation_of, q_factorial, root_of_unity,
    simple_pointed_catalog,
)
from hopfpath.scalars import order

CTX = cyclotomic_context(60)


def _deformed_sweep():
    out = [cycle_deform(n, root_of_unity(CTX, n), 1) for n in range(2, 7)]
    out += [cycle_half(n, root_of_unity(CTX, n // 2), 1) for n in (4, 6)]
    out += [chain_root(root_of_unity(CTX, d), 1) for d in range(2, 7)]
    out.append(chain_q1(CTX, 1))
    return out


DESCRIPTORS = simple_pointed_catalog(6, CTX) + _deformed_sweep()
GRADED = [cycle_graded(n, root_of_unity(CTX, m) ** t)
          for n in (1, 2, 3, 4, 6) for m in range(1, n + 1) if n % m == 0
          for t in range(1, m + 1) if math.gcd(t, m) == 1] \
    + [chain_graded(CTX.from_rational(2)), chain_graded(CTX.one()),
       chain_graded(root_of_unity(CTX, 3))]


# -- the formulas the stored fields replaced, kept as the reference ----------

def ref_has_p(desc):
    if desc.family in (CYCLE_DEFORM, CYCLE_HALF, CHAIN_ROOT):
        return True
    if desc.family in (CYCLE_GRADED, CHAIN_GRADED):
        d = order(desc.q)
        return d is not None and d > 1
    return False


def ref_p_length(desc):
    if not ref_has_p(desc):
        return 0
    return desc.n if desc.family == CYCLE_DEFORM else order(desc.q)


def ref_a_bound(desc):
    if desc.family in (CYCLE_DEFORM,):
        return desc.n
    if desc.family in (CYCLE_HALF, TYPE_ONE_CYCLE, TYPE_ONE_CHAIN,
                       CHAIN_ROOT):
        return order(desc.q)
    if desc.family in (CYCLE_GRADED, CHAIN_GRADED):
        d = order(desc.q)
        return d if d is not None and d > 1 else None
    return None


@pytest.mark.parametrize("desc", DESCRIPTORS + GRADED, ids=str)
def test_stored_invariants_match_the_reference(desc):
    assert desc.d == order(desc.q)
    rs = presentation_of(desc)
    assert ("p" in rs.letters) == ref_has_p(desc)
    assert rs.p_weight == ref_p_length(desc)
    assert rs.a_bound == ref_a_bound(desc)


def test_order_is_read_through_a_property():
    # perfbench/tracing.py counts the reads by wrapping the property
    assert isinstance(vars(HopfFamilyDescriptor)["d"], property)


@pytest.mark.parametrize("desc", DESCRIPTORS + GRADED, ids=str)
def test_qfactorial_table_matches_scalars(desc):
    table, q = presentation_of(desc).qfact, desc.q
    top = 2 * (desc.d or 3) + 2
    for j in (*range(top), *range(top)):  # the second pass reads the memo
        assert table.fact(j) == q_factorial(j, q)
    for k in range(4):
        for j in range(top):
            value = math.factorial(k) * q_factorial(j, q)
            if value.is_zero():
                continue
            assert table.inverse(k, j) * value == CTX.one()


def test_derived_fields_stay_out_of_comparison():
    fresh = cycle_half(6, root_of_unity(CTX, 3), 1)
    used = cycle_half(6, root_of_unity(CTX, 3), 1)
    presentation_of(used).qfact.inverse(2, 2)
    assert fresh == used and hash(fresh) == hash(used)
    assert presentation_of(fresh).qfact is presentation_of(used).qfact
    assert repr(fresh) == repr(used) and "qfact" not in repr(fresh)
    assert fresh.label() == used.label()
    assert descriptor_to_dict(fresh) == descriptor_to_dict(used)


@pytest.mark.parametrize("desc", GRADED, ids=str)
def test_basis_change_round_trip(desc):
    rs = presentation_of(desc)
    for mono in rs.normal_monomials(8, range(-2, 3)):
        x = rs.monomial(mono)
        assert path_preimage(desc, pbw_image(desc, x)) == x


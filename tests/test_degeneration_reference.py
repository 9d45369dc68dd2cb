"""The degeneration verdict against the element-level loop it replaced.

``verify_degeneration`` compares the top-weight part of each deformed
product with the graded product on the basis level: it reads the
deformed side from the presentation's product table and the graded side
from the path product and the PBW <-> path table.  ``_reference_
degeneration`` forms the same comparison through whole elements:
``pbw_image``, ``graded.multiply``, ``path_preimage``, ``rs.multiply``
and ``weight_part``.  The two must agree on the check name (with its
pair count), the verdict and the witness, on the criterion 08 sweep and
against a wrong graded layer, where the witnesses are not empty.
"""

from fractions import Fraction

import pytest

from hopfpath import (
    GradedHopfParams, Lin, Path, chain_graded, cycle_deform, cycle_graded,
    cyclotomic_context, multiply, path_preimage, pbw_image, presentation_of,
    root_of_unity, verify_antipode, verify_degeneration,
)
from hopfpath import verifier
from hopfpath.presentations import as_presentation
from hopfpath.verifier import _CHAIN_WINDOW, _monomials

from test_acceptance import _degeneration_descriptors, _hopf_bound


def _reference_degeneration(system, degree_bound):
    """(check name, passed, witness) of the degeneration verdict, from
    the element-level loop."""
    rs = as_presentation(system)
    desc = rs.descriptor
    gdesc = verifier._graded_sibling(desc)
    params = GradedHopfParams(desc.path_kind, gdesc.q)
    images = {m: pbw_image(gdesc, rs.monomial(m))
              for m in _monomials(rs, degree_bound)}
    pairs = 0
    bad = None
    for x, y in rs.monomial_pairs(degree_bound, _CHAIN_WINDOW):
        w = rs.monomial_weight(x) + rs.monomial_weight(y)
        pairs += 1
        deformed = rs.multiply(rs.monomial(x), rs.monomial(y))
        top_weight = deformed.weight()
        if top_weight is not None and top_weight > w:
            bad = f"{x} * {y} has weight {top_weight} > {w}"
            break
        graded = path_preimage(gdesc, multiply(params, images[x], images[y]))
        top = deformed.weight_part(w)
        if top.terms != graded.terms:
            bad = (f"{x} * {y}: leading part {top} "
                   f"differs from graded {graded}")
            break
    return (f"filtered products match the graded layer on {pairs} pairs",
            bad is None, bad or "")


def _verdict(desc, bound):
    rep = verify_degeneration(desc, bound)
    assert len(rep.checks) == 1
    check = rep.checks[0]
    return check.name, check.passed, check.witness


def _inverse_sibling(desc):
    """The graded layer at q^-1: wrong for every q but q = +-1."""
    q = desc.q.inverse()
    return chain_graded(q) if desc.is_chain else cycle_graded(desc.n, q)


SWEEP = _degeneration_descriptors()


@pytest.mark.parametrize("desc", SWEEP, ids=lambda d: d.label())
def test_verdict_matches_the_element_loop(desc):
    bound = _hopf_bound(desc)
    expected = _reference_degeneration(desc, bound)
    assert expected[1], expected
    assert _verdict(desc, bound) == expected


@pytest.mark.parametrize("desc", SWEEP, ids=lambda d: d.label())
def test_witness_matches_the_element_loop_on_a_wrong_layer(desc,
                                                           monkeypatch):
    monkeypatch.setattr(verifier, "_graded_sibling", _inverse_sibling)
    bound = _hopf_bound(desc)
    assert _verdict(desc, bound) == _reference_degeneration(desc, bound)


def test_wrong_layer_witness_text(monkeypatch):
    monkeypatch.setattr(verifier, "_graded_sibling", _inverse_sibling)
    desc = cycle_deform(4, root_of_unity(cyclotomic_context(12), 4), 1)
    assert _verdict(desc, 8) == (
        "filtered products match the graded layer on 41 pairs", False,
        "h * a: leading part z^3 * a h differs from graded -z^3 * a h")


# -- the per-middle kernel ----------------------------------------------------

def _fresh(desc):
    """A presentation of desc outside ``presentation_of``'s cache, so
    its memos start empty and may be changed by a test."""
    return presentation_of.__wrapped__(desc)


def test_a_higher_weight_term_gives_the_element_loop_witness():
    # the kernel reads each middle's excess weight once per verdict; a
    # product-table entry that carries a term above the pair's weight
    # must stop both loops on the same first pair, with the same text
    desc = cycle_deform(4, root_of_unity(cyclotomic_context(12), 4), 1)
    for key, extra in (((0, 0, 0, 1), (1, 0, 0)), ((1, 2, 1, 0), (1, 2, 0)),
                       ((2, 1, 0, 1), (1, 0, 1))):
        rs = _patched(desc, key, extra)
        name, passed, witness = _verdict(rs, 8)
        assert not passed and " has weight " in witness
        assert (name, passed, witness) == _reference_degeneration(rs, 8)


def _patched(desc, key, extra):
    """A fresh presentation of desc, its product table filled by a
    passing verdict at bound 8, with 5 * extra added to the entry of the
    middle ``key``."""
    rs = _fresh(desc)
    assert verify_degeneration(rs, 8).passed
    entry = dict(rs._prod[key])
    entry[rs.interned(*extra)] = rs.ctx.scalar(5)
    rs._prod[key] = entry
    return rs


def test_terms_at_or_below_the_pair_weight_give_the_element_loop_verdict():
    # a term of the pair's weight is a leading term, so the leading parts
    # differ; a term below it changes neither verdict
    desc = cycle_deform(4, root_of_unity(cyclotomic_context(12), 4), 1)
    rs = _patched(desc, (1, 2, 1, 0), (1, 1, 3))
    verdict = _verdict(rs, 8)
    assert verdict == _reference_degeneration(rs, 8)
    assert verdict[2] == ("a h^2 * p: leading part p a h^2 + 5 * p a h^3 "
                          "differs from graded p a h^2")
    rs = _patched(desc, (1, 2, 1, 0), (0, 2, 0))
    assert _verdict(rs, 8) == _reference_degeneration(rs, 8)
    assert _verdict(rs, 8)[1]


def _cold_and_warm(desc, bound):
    """The verdict on a presentation with an empty product table, and on
    one whose table ``verify_antipode`` has filled."""
    cold = _fresh(desc)
    assert not cold._prod
    verdict = _verdict(cold, bound)
    warm = _fresh(desc)
    verify_antipode(warm, bound)
    assert warm._prod
    return verdict, _verdict(warm, bound)


@pytest.mark.parametrize("desc", SWEEP, ids=lambda d: d.label())
def test_cold_and_warm_tables_give_the_same_verdict(desc):
    bound = _hopf_bound(desc)
    cold, warm = _cold_and_warm(desc, bound)
    assert cold == warm == _verdict(desc, bound)
    assert cold[1]


@pytest.mark.parametrize("desc", SWEEP[::3], ids=lambda d: d.label())
def test_cold_and_warm_tables_give_the_same_witness(desc, monkeypatch):
    monkeypatch.setattr(verifier, "_graded_sibling", _inverse_sibling)
    bound = _hopf_bound(desc)
    cold, warm = _cold_and_warm(desc, bound)
    assert cold == warm == _reference_degeneration(desc, bound)


# -- the monomial fast path ---------------------------------------------------

def test_a_default_coefficient_stores_the_context_one():
    desc = cycle_deform(4, root_of_unity(cyclotomic_context(12), 4), 1)
    rs = presentation_of(desc)
    ctx = rs.ctx
    mono = rs.interned(1, 2, 3)
    path = Path(desc.path_kind, 3, 6)
    assert rs.monomial(mono).terms[mono] is ctx.one()
    assert Lin.from_path(ctx, path).terms[path] is ctx.one()
    for one in (True, Fraction(1), "1", ctx.one()):
        assert rs.monomial(mono, one) == rs.monomial(mono)
        assert Lin.from_path(ctx, path, one) == Lin.from_path(ctx, path)
    for zero in (0, False, Fraction(0), "0", ctx.zero()):
        assert rs.monomial(mono, zero) == rs.zero_element()
        assert rs.monomial(mono, zero).terms == {}
        assert Lin.from_path(ctx, path, zero).terms == {}
    assert rs.monomial(mono, 2).terms == {mono: ctx.scalar(2)}

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

import pytest

from hopfpath import (
    GradedHopfParams, chain_graded, cycle_deform, cycle_graded,
    cyclotomic_context, multiply, path_preimage, pbw_image, root_of_unity,
    verify_degeneration,
)
from hopfpath import verifier
from hopfpath.presentations import _path_kind, as_presentation
from hopfpath.verifier import _CHAIN_WINDOW, _monomials

from test_acceptance import _degeneration_descriptors, _hopf_bound


def _reference_degeneration(system, degree_bound):
    """(check name, passed, witness) of the degeneration verdict, from
    the element-level loop."""
    rs = as_presentation(system)
    desc = rs.descriptor
    gdesc = verifier._graded_sibling(desc)
    params = GradedHopfParams(_path_kind(desc), gdesc.q)
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

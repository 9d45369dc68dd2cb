"""Fixed mutants of classified presentations.

Each mutant is a trial system (``verifier._trial_system``) with one term
appended to one rule's right-hand side.  The Hopf verdict must reject it
unless the mutant is itself a classified presentation.  The bounded
antipode witnesses of ``verify_antipode``, the first monomial that fails
each convolution axiom and its convolution, are pinned as text, and so
are the rules that S no longer respects, with their residuals.  Over a
fixed enumeration of one-term mutants, the finite certificate of
``verify_hopf`` agrees with the bounded verdict it replaced.
"""

import pytest

from hopfpath import (
    check_confluence, cycle_deform, cycle_graded, cyclotomic_context,
    presentation_of, root_of_unity, verify_antipode, verify_hopf,
    verify_relation_coproducts,
)
from hopfpath.verifier import (
    _antipode_generators, _antipode_word, _trial_system,
)
from test_acceptance import _family_sweep

I4 = root_of_unity(cyclotomic_context(4), 4)


@pytest.mark.parametrize("base, terms, failing, antipode, classified", [
    # hp -> 2 ph breaks the coproduct of hp
    (cycle_graded(4, I4), {"hp": [("ph", 1)]},
     ["delta respects hp -> "], ("", "p h: m(id (x) S)delta = -15 * p"),
     None),
    # ap -> pa + a + 1 breaks both the coproduct and the counit of ap
    (cycle_deform(4, I4, 1), {"ap": [("", 1)]},
     ["delta respects ap -> ", "counit respects ap -> "],
     ("", "p a: m(id (x) S)delta = (-1 - z)"), None),
    # ap -> pa + 2a is cycle-deform at lambda = 2
    (cycle_deform(4, I4, 1), {"ap": [("a", 1)]}, [], ("", ""),
     cycle_deform(4, I4, 2)),
], ids=["graded-hp-doubled", "deform-ap-unit", "deform-ap-lambda-doubled"])
def test_a_mutant_fails_unless_it_is_classified(base, terms, failing,
                                                antipode, classified):
    mutant = _trial_system(base, terms, "mutant")
    rep = verify_hopf(mutant, 6)
    witness = {c.name: c.witness for c in verify_antipode(mutant, 6).checks}
    assert (witness["left antipode axiom on 28 monomials"],
            witness["right antipode axiom on 28 monomials"]) == antipode
    if classified is None:
        assert not rep.passed
        names = [c.name for c in rep.failures()]
        for prefix in failing:
            assert any(name.startswith(prefix) for name in names), prefix
    else:
        assert rep.passed and verify_hopf(classified, 6).passed


@pytest.mark.parametrize("base, terms, antipode", [
    (cycle_graded(4, I4), {"hp": [("ph", 1)]},
     {"antipode respects hp -> (1) ph + (1) ph": "residual 15 * p h^3",
      "antipode respects ap -> (1) pa": "residual 7*z * p a h^3"}),
    (cycle_deform(4, I4, 1), {"ap": [("", 1)]},
     {"antipode respects ap -> (1) pa + (1) a + (1) 1":
      "residual -1 + z * h^3"}),
], ids=["graded-hp-doubled", "deform-ap-unit"])
def test_a_mutant_fails_relation_by_relation(base, terms, antipode):
    # S respects no rule that the mutant changes, and an overlap
    # ambiguity of the changed rule no longer resolves
    rep = verify_hopf(_trial_system(base, terms, "mutant"), 6)
    failed = {c.name: c.witness for c in rep.failures()}
    assert {name: witness for name, witness in failed.items()
            if name.startswith("antipode respects ")} == antipode
    assert any(name.startswith("ambiguity ") for name in failed)


def test_a_failed_antipode_solve_is_a_failed_check():
    # h -> 2 on the 1-cycle: h is not invertible, so there is no antipode
    # and S is checked against no rule
    one = cyclotomic_context(1).one()
    rep = verify_hopf(_trial_system(cycle_graded(1, one), {"h": [("", 1)]},
                                    "mutant h"), 6)
    assert rep.subject == "Hopf axioms of mutant h"
    assert {c.name: c.witness for c in rep.failures()}["antipode solve"] \
        == "no antipode: group-like is not invertible"
    assert not any(c.name.startswith("antipode respects ")
                   for c in rep.checks)


def _one_term_mutants(max_n):
    """Every rule of every presentation of the sweep up to cycle length
    max_n, with +1 or one more copy of a right-hand term appended."""
    for desc in _family_sweep(max_n=max_n):
        for lhs, rhs in presentation_of(desc).rules:
            for term in (("", 1), *rhs):
                yield desc, {lhs: [term]}


def _respects_every_rule(rs):
    """S respects every rule, or False when there is no antipode."""
    try:
        _antipode_generators(rs)
    except ArithmeticError:
        return False
    for lhs, rhs in rs.rules:
        diff = _antipode_word(rs, lhs)
        for rword, rcoeff in rhs:
            diff.add_scaled(_antipode_word(rs, rword), -rcoeff)
        if not diff.is_zero():
            return False
    return True


def _bounded_verdict(rs):
    """The Hopf verdict before the certificate: Delta, epsilon and S on
    every rule, every ambiguity, and the antipode axioms on the 28 or
    more monomials of weight <= 6 (checked last, as the dearest)."""
    return verify_relation_coproducts(rs).passed \
        and check_confluence(rs).passed and _respects_every_rule(rs) \
        and verify_antipode(rs, 6).passed


def test_the_certificate_agrees_with_the_bounded_verdict():
    verdicts = []
    for desc, terms in _one_term_mutants(3):
        mutant = _trial_system(desc, terms, "mutant")
        certified = verify_hopf(mutant, 6).passed
        assert certified == _bounded_verdict(mutant), (desc.label(), terms)
        # no mutant passes the certificate but fails the bounded axioms
        assert not certified or verify_antipode(mutant, 6).passed, \
            (desc.label(), terms)
        verdicts.append(certified)
    assert (len(verdicts), sum(verdicts)) == (329, 4)

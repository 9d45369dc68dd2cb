"""Fixed mutants of classified presentations.

Each mutant is a trial system (``verifier._trial_system``) with one term
appended to one rule's right-hand side.  The Hopf verdict must reject it
unless the mutant is itself a classified presentation.  The antipode
witnesses, the first monomial that fails each convolution axiom and
its convolution, are pinned as text, and so are the rules that S no
longer respects, with their residuals.
"""

import pytest

from hopfpath import (
    cycle_deform, cycle_graded, cyclotomic_context, root_of_unity,
    verify_hopf,
)
from hopfpath.verifier import _trial_system

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
    rep = verify_hopf(_trial_system(base, terms, "mutant"), 6)
    witness = {c.name: c.witness for c in rep.checks}
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

"""Fixed mutants of classified presentations.

Each mutant is a trial system (``verifier._trial_system``) with one term
appended to one rule's right-hand side.  The Hopf verdict must reject it
unless the mutant is itself a classified presentation.
"""

import pytest

from hopfpath import (
    cycle_deform, cycle_graded, cyclotomic_context, root_of_unity,
    verify_hopf,
)
from hopfpath.verifier import _trial_system

I4 = root_of_unity(cyclotomic_context(4), 4)


@pytest.mark.parametrize("base, terms, failing, classified", [
    # hp -> 2 ph breaks the coproduct of hp
    (cycle_graded(4, I4), {"hp": [("ph", 1)]},
     ["delta respects hp -> "], None),
    # ap -> pa + a + 1 breaks both the coproduct and the counit of ap
    (cycle_deform(4, I4, 1), {"ap": [("", 1)]},
     ["delta respects ap -> ", "counit respects ap -> "], None),
    # ap -> pa + 2a is cycle-deform at lambda = 2
    (cycle_deform(4, I4, 1), {"ap": [("a", 1)]}, [], cycle_deform(4, I4, 2)),
], ids=["graded-hp-doubled", "deform-ap-unit", "deform-ap-lambda-doubled"])
def test_a_mutant_fails_unless_it_is_classified(base, terms, failing,
                                                classified):
    rep = verify_hopf(_trial_system(base, terms, "mutant"), 6)
    if classified is None:
        assert not rep.passed
        names = [c.name for c in rep.failures()]
        for prefix in failing:
            assert any(name.startswith(prefix) for name in names), prefix
    else:
        assert rep.passed and verify_hopf(classified, 6).passed

"""The oriented defining relations of every swept presentation stay fixed.

For each descriptor of the acceptance family sweep, of the
simple-pointed catalog at max_n = 4 and of both half-order coefficient
readings at n/d = 8/4 and 6/3, the rules (left-hand side and
right-hand ``[word, scalar]`` terms, in order), ``p_weight``, ``h_order``
and ``a_bound`` are compared with ``tests/presentation_rules_golden.json``.
The forced-vanishing suite addresses rules by index, so their order is
part of the contract.  To rewrite the golden file after an intended
change, run ``PYTHONPATH=src:tests python tests/test_presentation_rules.py``.
"""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hopfpath import (
    chain_graded, chain_q1, chain_root, cycle_deform, cycle_graded,
    cycle_half, cyclotomic_context, presentation_of, root_of_unity,
    simple_pointed_catalog,
)
from hopfpath.presentations import descriptor_to_dict

from test_acceptance import _family_sweep

GOLDEN = Path(__file__).resolve().parent / "presentation_rules_golden.json"


def swept_descriptors():
    half = [cycle_half(n, root_of_unity(cyclotomic_context(conductor), d), 1,
                       coeff_reading=reading)
            for n, d, conductor in ((8, 4, 8), (6, 3, 3))
            for reading in ("factorial", "integer")]
    return [*_family_sweep(), *simple_pointed_catalog(4), *half]


def presentation_record(desc):
    rs = presentation_of(desc)
    return {
        "descriptor": descriptor_to_dict(desc),
        "rules": [[lhs, [[w, str(c)] for w, c in rhs]]
                  for lhs, rhs in rs.rules],
        "p_weight": rs.p_weight,
        "h_order": rs.h_order,
        "a_bound": rs.a_bound,
    }


def test_rules_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    records = [presentation_record(desc) for desc in swept_descriptors()]
    assert len(records) == len(golden) == 120
    for got, expected in zip(records, golden):
        assert got == expected


def _graded_pair(family, order):
    """A deformed family at parameter zero and its graded sibling."""
    if family == "chain-q1":
        ctx = cyclotomic_context(1)
        return chain_q1(ctx, 0), chain_graded(ctx.one())
    if family == "chain-root":
        q = root_of_unity(cyclotomic_context(order), order)
        return chain_root(q, 0), chain_graded(q)
    if family == "cycle-deform":
        q = root_of_unity(cyclotomic_context(order), order)
        return cycle_deform(order, q, 0), cycle_graded(order, q)
    q = root_of_unity(cyclotomic_context(order), order)
    return cycle_half(2 * order, q, 0), cycle_graded(2 * order, q)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["cycle-deform", "cycle-half", "chain-root",
                        "chain-q1"]),
       st.integers(min_value=2, max_value=6))
def test_zero_parameter_gives_the_graded_rules(family, order):
    deformed, graded = (presentation_of(desc)
                        for desc in _graded_pair(family, order))
    assert deformed.rules == graded.rules
    assert (deformed.p_weight, deformed.h_order, deformed.a_bound) \
        == (graded.p_weight, graded.h_order, graded.a_bound)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        [presentation_record(desc) for desc in swept_descriptors()],
        indent=1) + "\n")

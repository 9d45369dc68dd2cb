"""Property tests of the rewriting engine on every classified family: the
first-letter rule index against a full scan, and the normal form against
a reducer that works in another order (the diamond lemma, Bergman 1978)."""

import pytest
from hypothesis import given, strategies as st

from hopfpath import (
    RewriteSystem, chain_graded, chain_q1, chain_root, cycle_deform,
    cycle_graded, cycle_half, cyclotomic_context, presentation_of,
    root_of_unity, type_one_chain, type_one_cycle,
)
from hopfpath.presentations import FAMILIES

Q3 = root_of_unity(cyclotomic_context(3), 3)
Q4 = root_of_unity(cyclotomic_context(4), 4)
MINUS_ONE = -cyclotomic_context(2).one()
DESCS = [
    cycle_graded(3, Q3),
    cycle_deform(4, Q4, 1),
    cycle_half(4, MINUS_ONE, 1),
    cycle_half(6, Q3, 1),
    chain_graded(cyclotomic_context(1).from_rational(2)),
    chain_q1(cyclotomic_context(1), 1),
    chain_root(Q3, 2),
    type_one_cycle(4, MINUS_ONE, 1),
    type_one_chain(Q3, 1),
]


# Left-hand sides that share a prefix, so that two rules can match at the
# same position and the rule order decides; no classified family has such
# a pair.
OVERLAPPING = RewriteSystem(cyclotomic_context(1), [
    ("hha", [("ahh", 1)]), ("ha", [("ah", 1)]), ("hh", [("", 1)]),
    ("aa", []),
])


def test_every_family_is_sampled():
    assert {desc.family for desc in DESCS} == set(FAMILIES)


def scan_match(rs, word):
    """The full scan the index replaced: leftmost position, then the
    lowest rule index."""
    for pos in range(len(word)):
        for ridx, (lhs, _) in enumerate(rs.rules):
            if word.startswith(lhs, pos):
                return pos, ridx
    return None


def rightmost_first(rs, word):
    """Normal form of ``word`` without a memo, always rewriting the
    rightmost match (lowest rule index there) and summing the right-hand
    terms."""
    for pos in range(len(word) - 1, -1, -1):
        for lhs, rhs in rs.rules:
            if word.startswith(lhs, pos):
                out = {}
                for rword, c in rhs:
                    child = word[:pos] + rword + word[pos + len(lhs):]
                    for m, v in rightmost_first(rs, child).items():
                        out[m] = out.get(m, rs.ctx.zero()) + c * v
                return {m: v for m, v in out.items() if not v.is_zero()}
    mono = rs._parse_normal_word(word)
    assert mono is not None, f"irreducible {word!r} is not in PBW shape"
    return {mono: rs.ctx.one()}


def cases(systems, max_size):
    return st.sampled_from(systems).flatmap(lambda rs: st.tuples(
        st.just(rs), st.text(alphabet=sorted(rs.letters),
                             max_size=max_size)))


SYSTEMS = [presentation_of(desc) for desc in DESCS]


@given(cases(SYSTEMS + [OVERLAPPING], 12))
def test_rule_index_matches_the_scan(case):
    rs, word = case
    assert rs._find_match(word) == scan_match(rs, word)


@given(cases(SYSTEMS, 7))
def test_normal_form_does_not_depend_on_reduction_order(case):
    rs, word = case
    terms, _ = rs.reduce_word(word)
    assert terms == rightmost_first(rs, word)


def test_empty_left_hand_side_is_rejected():
    ctx = cyclotomic_context(1)
    with pytest.raises(ValueError, match="empty left-hand side"):
        RewriteSystem(ctx, [("aa", []), ("", [])])

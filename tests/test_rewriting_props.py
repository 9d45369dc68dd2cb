"""Property tests of the rewriting engine on every classified family: the
first-letter rule index against a full scan, and the normal form against
a reducer that works in another order (the diamond lemma, Bergman 1978)."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from hopfpath import (
    RewriteSystem, chain_graded, chain_q1, chain_root, cycle_deform,
    cycle_graded, cycle_half, cyclotomic_context, presentation_of,
    root_of_unity, type_one_chain, type_one_cycle,
)
from hopfpath.presentations import FAMILIES, _RANK, _misclassified_word
from test_acceptance import _family_sweep

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


SWEEP = [presentation_of(desc) for desc in _family_sweep()]


@given(cases(SWEEP, 10))
def test_the_letter_fold_equals_the_whole_word_reduction(case):
    # normal_form folds the letters through the product table;
    # reduce_word rewrites the whole word
    rs, word = case
    assert rs.normal_form(word).terms == rs.reduce_word(word)[0]


def _with_rules(rs, rules, name):
    return RewriteSystem(rs.ctx, rules, p_weight=rs.p_weight,
                         h_order=rs.h_order, a_bound=rs.a_bound, name=name)


def _exhaustive_misclassified(rs, max_len):
    """The first misclassified word among all words up to max_len."""
    alphabet = sorted(rs.letters, key=_RANK.get, reverse=True)
    for length in range(1, max_len + 1):
        for letters in product(alphabet, repeat=length):
            word = "".join(letters)
            reducible = rs._find_match(word) is not None
            if reducible == (rs._parse_normal_word(word) is not None):
                return word
    return None


def _misclassifying_systems():
    """Two presentations whose audit fails: one without its a^d rule,
    and one with a rule whose left-hand side is a PBW word."""
    cycle = presentation_of(cycle_deform(4, Q4, 1))
    chain = presentation_of(chain_root(Q3, 1))
    yield _with_rules(cycle, [r for r in cycle.rules if r[0] != "aaaa"],
                      "no a^4 rule")
    yield _with_rules(chain, [*chain.rules, ("pah", [("pa", 1)])],
                      "pah -> pa")


def test_the_pruned_audit_finds_the_first_misclassified_word():
    found = []
    for rs in [*SWEEP, *_misclassifying_systems()]:
        for max_len in (5, 6):
            bad = _misclassified_word(rs, max_len)
            assert bad == _exhaustive_misclassified(rs, max_len), rs.name
            found.append(bad)
    assert found[-4:] == ["aaaa", "aaaa", "pah", "pah"]
    assert not any(found[:-4])


def test_empty_left_hand_side_is_rejected():
    ctx = cyclotomic_context(1)
    with pytest.raises(ValueError, match="empty left-hand side"):
        RewriteSystem(ctx, [("aa", []), ("", [])])

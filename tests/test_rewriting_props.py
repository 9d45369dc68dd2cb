"""Property tests of the rewriting engine on every classified family: the
first-letter rule index against a full scan, the normal form against
a reducer that works in another order (the diamond lemma, Bergman 1978),
and the unbounded basis audit against bounded word searches."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

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
                         h_order=rs.h_order, a_bound=rs.a_bound,
                         qfact=rs.qfact, name=name)


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


def _bounded_misclassified_word(rs, max_len):
    """The first word of length <= max_len over the presentation's
    letters, shortest first and then in letter order, that is reducible
    but of PBW shape or irreducible but not of PBW shape; None if there
    is none.  The bounded audit that ``_misclassified_word`` replaced.

    Only irreducible words are extended.  A word with a reducible proper
    prefix is reducible, and the prefixes of a PBW-shaped word are
    PBW-shaped, so such a word is misclassified only if its shortest
    reducible prefix is, which comes first.
    """
    alphabet = sorted(rs.letters, key=_RANK.get, reverse=True)
    stems = [""]
    for _ in range(max_len):
        grown = []
        for stem in stems:
            for sym in alphabet:
                word = stem + sym
                reducible = rs._find_match(word) is not None
                if reducible == (rs._parse_normal_word(word) is not None):
                    return word
                if not reducible:
                    grown.append(word)
        stems = grown
    return None


def _within(word, max_len):
    """What a search up to max_len finds when the shortest misclassified
    word is ``word``."""
    return word if word is not None and len(word) <= max_len else None


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
            bad = _bounded_misclassified_word(rs, max_len)
            assert bad == _exhaustive_misclassified(rs, max_len), rs.name
            found.append(bad)
    assert found[-4:] == ["aaaa", "aaaa", "pah", "pah"]
    assert not any(found[:-4])


def _dropped_rule_systems(presentations):
    """Each presentation once for each rule, without that rule, named
    with its field, since q = z in Q(zeta_d) has one label for every d."""
    for rs in presentations:
        for lhs, _ in rs.rules:
            yield _with_rules(rs, [r for r in rs.rules if r[0] != lhs],
                              f"{rs.name} over Q(zeta_{rs.ctx.N}) "
                              f"without {lhs}")


def test_the_unbounded_audit_finds_the_bounded_witness():
    beyond = []
    for rs in [*SWEEP, *_dropped_rule_systems(SWEEP)]:
        max_len = 6 if rs.h_order is not None else 5
        bad = _misclassified_word(rs)
        assert _within(bad, max_len) \
            == _bounded_misclassified_word(rs, max_len), rs.name
        if bad != _within(bad, max_len):
            beyond.append((rs.name, bad))
    # the d = 6 chains without a^6 -> 0, which the bounded search missed
    assert beyond == [(f"{family} over Q(zeta_6) without aaaaaa", "aaaaaa")
                      for family in (
                          "chain-graded, q=z", "chain-root, q=z, lambda=0",
                          "chain-root, q=z, lambda=1",
                          "chain-root, q=z, lambda=2",
                          "type-one-chain, q=z, mu=0",
                          "type-one-chain, q=z, mu=1")]


@st.composite
def _random_systems(draw):
    """Left-hand sides, each rewritten to zero, that are the minimal
    non-PBW words of a random p weight, a-bound and h order over random
    letters, with up to two of them dropped and up to two random words
    added; so the audit passes, or fails at any length."""
    bound = st.none() | st.integers(min_value=1, max_value=5)
    shape = RewriteSystem(cyclotomic_context(1), [],
                          p_weight=draw(st.integers(0, 2)),
                          a_bound=draw(bound), h_order=draw(bound))
    letters = sorted(draw(st.sets(st.sampled_from("hHap"), min_size=1)),
                     key=_RANK.get, reverse=True)
    sides = {x + y for x in ["", *letters] for y in letters
             if shape._parse_normal_word(x + y) is None}
    sides |= {c * bound for c, bound in (("a", shape.a_bound),
                                         ("h", shape.h_order))
              if c in letters and bound}
    sides -= draw(st.sets(st.sampled_from(sorted(sides)), max_size=2)) \
        if sides else set()
    sides |= draw(st.sets(st.text(alphabet=letters, min_size=1,
                                  max_size=4), max_size=2))
    return RewriteSystem(shape.ctx, [(w, []) for w in sorted(sides)],
                         p_weight=shape.p_weight, a_bound=shape.a_bound,
                         h_order=shape.h_order, name=f"{sorted(sides)}")


@settings(max_examples=100, deadline=None)
@given(_random_systems())
def test_the_unbounded_audit_is_the_exhaustive_search(rs):
    assert _within(_misclassified_word(rs), 7) \
        == _exhaustive_misclassified(rs, 7)


def test_empty_left_hand_side_is_rejected():
    ctx = cyclotomic_context(1)
    with pytest.raises(ValueError, match="empty left-hand side"):
        RewriteSystem(ctx, [("aa", []), ("", [])])

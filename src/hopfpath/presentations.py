"""Generator/relation presentations and rewriting to PBW normal forms.

Every classified multiplication is presented on generators h (the
group-like), a (the arrow at the identity), optionally H (the inverse of
h, chains only) and p (the degree-d divided-power generator).  Each
presentation is the graded relations on its quiver with the family's
lower-weight deformation terms appended (``_deformation_terms``), as
an oriented rewriting system whose rules strictly
decrease a degree-lexicographic word order, so reduction terminates and,
once the overlap ambiguities resolve (checked, not assumed), normal
forms p^k a^j h^i are a basis.

The word order compares (total weight, length, letters) where p weighs
its path degree, a weighs 1, and h, H weigh 0; letters rank
h > H > a > p.  This orients every defining relation toward the normal
form and lets the inverse-pair and power rules shrink words.

A product of two normal monomials is folded, not rewritten as one
word.  A group-like right factor h^e only shifts the h exponent,
x h^e (``RewriteSystem.h_shift``), and reads no table.  Otherwise, in
p^k a^j h^i * p^k' a^j' h^i' only the middle a^j h^i p^k' a^j'
changes; ``RewriteSystem.mono_product`` memoizes its normal form in
``_prod``, keyed (j, i, k', j') with k' + j' > 0, beside the word memo
``_nf``, and carries p^k and h^i' through by shifting exponents;
``accumulate`` reads the entries itself and shifts term by term as it
adds.  Where the rules q-commute h with the middle's letters,
hx -> c_x xh, a middle with i != 0 is its i = 0 entry conjugated,
c_p^(ik') c_a^(ij') times it with every h exponent moved by i, and is
kept alone.  Any other middle is folded once, from its longest prefix
in ``_prod`` one letter at a time, and every prefix it passes is kept.
A middle of one letter x, a^j h^i x, is a^j * NF(h^i x), so the table
reduces only the words h^i x and a^j p^K a^J (for each term p^K a^J h^I
of NF(h^i x)), which ``_nf`` memoizes; and where the rules allow it,
``reduce_word`` takes a word that ends in a run of h (or H) to its
stem's normal form shifted, not rewriting the run.  Both shortcuts
reach what the leftmost rewriter reaches, term for term, so neither
presupposes confluence.  Every monomial these tables hold comes from
the presentation's table ``_monos``, keyed (k, j, i), so equal
monomials are one object.
``multiply`` and the tensor-square product
of ``Lin`` read the product table, so the basis change and the
degeneration check reach ``reduce_word`` only through its entries, and
``normal_form`` folds a word one letter at a time through the same
table.  Only ``check_confluence`` and ``resolution_difference`` (and
through it the verifier's forced-vanishing trials) call ``reduce_word``
on whole words: an ambiguity resolution must not presuppose the
confluence it tests.

The PBW <-> path identification of a descriptor's presentation is one
table on the presentation in two memos: ``_to_path`` maps a monomial to
its (path, scalar) image and ``_to_pbw`` maps a path to its (monomial,
scalar) preimage, each filled on first use by ``_path_term`` and
``_pbw_term`` with monomials from ``_monos``, on the descriptor's
``path_kind``.  ``pbw_to_path`` and ``path_to_pbw`` build a new element
from an entry; ``pbw_image`` and ``path_preimage`` add every term's
entry into one dict, a key's first term stored as it is, as in
``accumulate``.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .linear import Lin
from .quiver import Path, _require_int, chain_kind, cycle_kind
from .report import VerificationReport
from .scalars import (
    conductor_for, cyclotomic_context, order, parse_rational, q_factorial,
    q_int, root_of_unity,
)

__all__ = [
    "CYCLE_GRADED", "CYCLE_DEFORM", "CYCLE_HALF", "CHAIN_GRADED",
    "CHAIN_Q1", "CHAIN_ROOT", "TYPE_ONE_CYCLE", "TYPE_ONE_CHAIN",
    "FAMILIES",
    "HopfFamilyDescriptor", "PBWMonomial", "RewriteSystem",
    "cycle_graded", "cycle_deform", "cycle_half", "chain_graded",
    "chain_q1", "chain_root", "type_one_cycle", "type_one_chain",
    "presentation_of", "normal_form", "parse_word", "multiply_alg",
    "check_confluence", "resolution_difference", "structure_rows",
    "pbw_to_path", "path_to_pbw", "pbw_image", "path_preimage", "pbw_rows",
    "classify_iso", "simple_pointed_catalog",
    "descriptor_to_dict", "descriptor_from_dict",
]

CYCLE_GRADED = "cycle-graded"
CYCLE_DEFORM = "cycle-deform"
CYCLE_HALF = "cycle-half"
CHAIN_GRADED = "chain-graded"
CHAIN_Q1 = "chain-q1"
CHAIN_ROOT = "chain-root"
TYPE_ONE_CYCLE = "type-one-cycle"
TYPE_ONE_CHAIN = "type-one-chain"

FAMILIES = (
    CYCLE_GRADED, CYCLE_DEFORM, CYCLE_HALF, CHAIN_GRADED,
    CHAIN_Q1, CHAIN_ROOT, TYPE_ONE_CYCLE, TYPE_ONE_CHAIN,
)

_CYCLE_FAMILIES = {CYCLE_GRADED, CYCLE_DEFORM, CYCLE_HALF, TYPE_ONE_CYCLE}
_LAMBDA_FAMILIES = {CYCLE_DEFORM, CHAIN_Q1, CHAIN_ROOT}
_TYPE_ONE_FAMILIES = {TYPE_ONE_CYCLE, TYPE_ONE_CHAIN}


class PBWMonomial(NamedTuple):
    """The normal-form word p^k a^j h^i; i is signed for chains.

    A tuple (k, j, i), so hash, equality and order are the tuple's own:
    monomials key every normal-form memo and every PBW element.
    """

    k: int
    j: int
    i: int

    def sort_key(self):
        return self

    def word(self):
        tail = "h" * self.i if self.i >= 0 else "H" * (-self.i)
        return "p" * self.k + "a" * self.j + tail

    def __str__(self):
        parts = []
        for sym, e in (("p", self.k), ("a", self.j), ("h", self.i)):
            if e == 0:
                continue
            if e == 1:
                parts.append(sym)
            else:
                parts.append(f"{sym}^{e}")
        return " ".join(parts) if parts else "1"


class QFactorialTable:
    """The q-factorials j!_q of one q, filled on demand.

    Also holds the inverses of k! * j!_q, the PBW <-> path rescaling;
    an inverse in Q(zeta_N) is an extended Euclid, far dearer than the
    dict lookup that replaces it.
    """

    def __init__(self, q):
        self.q = q
        self._fact = {}
        self._inverse = {}

    def fact(self, j):
        """j!_q."""
        value = self._fact.get(j)
        if value is None:
            value = self._fact[j] = q_factorial(j, self.q)
        return value

    def inverse(self, k, j):
        """1 / (k! * j!_q)."""
        value = self._inverse.get((k, j))
        if value is None:
            value = (math.factorial(k) * self.fact(j)).inverse()
            self._inverse[(k, j)] = value
        return value


class HopfFamilyDescriptor:
    """A named point of the classification: family tag plus parameters.

    ``param`` is the deformation scalar (lambda or mu depending on the
    family); a graded family refuses a nonzero one.  ``half_coeff`` selects the reading of
    the mixed-commutator coefficient in the half-order cycle family:
    "factorial" divides by (d-1)!_q, "integer" by the q-integer (d-1)_q.
    The two agree for d <= 3; the factorial reading is the one the
    coproduct-compatibility checks single out, and is the default.  No
    other family has the coefficient, so it refuses "integer".

    The derived invariants ``d``, the order of q (the divided-power
    degree; None if infinite), and ``path_kind``, the quiver kind of the
    family's paths, are set once, when the descriptor is built, and take
    no part in comparison.  ``d`` stays a property over the stored
    ``_d``, so that the perfbench tracer can count its reads.
    Provenance ``notes`` take no part in comparison either.  The hash is
    computed once too, when the descriptor is built or unpickled.

    A descriptor is immutable: assignment raises ``AttributeError``.
    Its fields live in the instance ``__dict__``, so that ``copy``,
    ``deepcopy`` and ``pickle`` restore them without assigning.
    """

    def __init__(self, family, n, q, param, half_coeff="factorial",
                 notes=()):
        # n is an int for cycles, None for chains
        vars(self).update(family=family, n=n, q=q, param=param,
                          half_coeff=half_coeff, notes=notes)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        ctx = self.q.ctx
        object.__setattr__(self, "param", ctx.scalar(self.param))
        if self.half_coeff not in ("factorial", "integer"):
            raise ValueError("half_coeff must be 'factorial' or 'integer'")
        if self.half_coeff != "factorial" and self.family != CYCLE_HALF:
            raise ValueError(f"the {self.half_coeff!r} coefficient reading "
                             f"applies to cycle-half only, not {self.family}")
        if self.family in _CYCLE_FAMILIES:
            if type(self.n) is not int or self.n < 1:
                raise ValueError("cycle families need a positive integer n")
            if self.q ** self.n != ctx.one():
                raise ValueError("q must satisfy q^n = 1 on a cycle")
        else:
            if self.n is not None:
                raise ValueError("chain families carry no cycle length")
            if self.q.is_zero():
                raise ValueError("chain families need a nonzero q")
        d = order(self.q) if not self.q.is_zero() else None
        if self.is_graded and not self.param.is_zero():
            raise ValueError(f"{self.family} carries no deformation parameter")
        if self.family == CYCLE_DEFORM:
            if d != self.n or self.n < 2:
                raise ValueError("order(q) must equal n for cycle-deform")
        elif self.family == CYCLE_HALF:
            if self.n % 2 != 0 or d != self.n // 2 or d < 2:
                raise ValueError(
                    "cycle-half needs even n and order(q) = n/2 > 1")
        elif self.family == CHAIN_Q1:
            if self.q != ctx.one():
                raise ValueError("chain-q1 requires q = 1")
            self._normalize_param("lambda")
        elif self.family == CHAIN_ROOT:
            if d is None or d < 2:
                raise ValueError(
                    "chain-root needs q a root of unity of order > 1")
        elif self.family in _TYPE_ONE_FAMILIES:
            if d is None or d < 2:
                raise ValueError(
                    "type-one families need q a root of unity of order > 1")
            self._normalize_param("mu")
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "path_kind", chain_kind() if self.is_chain
                           else cycle_kind(self.n))
        self._set_hash()

    def _set_hash(self):
        object.__setattr__(self, "_hash", hash(
            (self.family, self.n, self.q, self.param, self.half_coeff)))

    def __setstate__(self, state):
        # a str hashes differently in another process: hash afresh
        vars(self).update(state)
        self._set_hash()

    def _normalize_param(self, name):
        # The classification normalizes these deformation scalars to
        # {0, 1}: any nonzero value is rescaled to 1 by a coalgebra
        # automorphism, recorded as a provenance note.
        if not self.param.is_zero() and self.param != self.ctx.one():
            object.__setattr__(
                self, "notes",
                self.notes + (f"{name} rescaled to 1 (was {self.param})",))
            object.__setattr__(self, "param", self.ctx.one())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # presentation_of hashes a descriptor on every call, so the hash is
    # stored, and the field tuple of __eq__ is spelled out rather than
    # built by a helper method
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.n, self.q, self.param, self.half_coeff) \
            == (other.family, other.n, other.q, other.param, other.half_coeff)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"HopfFamilyDescriptor(family={self.family!r}, n={self.n!r}, "
                f"q={self.q!r}, param={self.param!r}, "
                f"half_coeff={self.half_coeff!r}, notes={self.notes!r})")

    # -- derived structure --------------------------------------------------

    @property
    def ctx(self):
        return self.q.ctx

    @property
    def d(self):
        """Order of q (the divided-power degree); None if infinite."""
        return self._d

    @property
    def is_chain(self):
        return self.family not in _CYCLE_FAMILIES

    @property
    def is_graded(self):
        return self.family in (CYCLE_GRADED, CHAIN_GRADED)

    @property
    def param_name(self):
        return "lambda" if self.family in _LAMBDA_FAMILIES else "mu"

    def label(self):
        bits = [self.family]
        if self.n is not None:
            bits.append(f"n={self.n}")
        bits.append(f"q={self.q}")
        if not self.is_graded:
            bits.append(f"{self.param_name}={self.param}")
        return ", ".join(bits)

    def __str__(self):
        return self.label()


# -- descriptor factories ------------------------------------------------------

def cycle_graded(n, q):
    return HopfFamilyDescriptor(CYCLE_GRADED, n, q, q.ctx.zero())


def cycle_deform(n, q, lam=0):
    return HopfFamilyDescriptor(CYCLE_DEFORM, n, q, q.ctx.scalar(lam))


def cycle_half(n, q, mu=0, coeff_reading="factorial"):
    return HopfFamilyDescriptor(CYCLE_HALF, n, q, q.ctx.scalar(mu),
                                half_coeff=coeff_reading)


def chain_graded(q):
    return HopfFamilyDescriptor(CHAIN_GRADED, None, q, q.ctx.zero())


def chain_q1(ctx, lam=0):
    return HopfFamilyDescriptor(CHAIN_Q1, None, ctx.one(), ctx.scalar(lam))


def chain_root(q, lam=0):
    return HopfFamilyDescriptor(CHAIN_ROOT, None, q, q.ctx.scalar(lam))


def type_one_cycle(n, q, mu=0):
    return HopfFamilyDescriptor(TYPE_ONE_CYCLE, n, q, q.ctx.scalar(mu))


def type_one_chain(q, mu=0):
    return HopfFamilyDescriptor(TYPE_ONE_CHAIN, None, q, q.ctx.scalar(mu))


# -- the rewriting engine ------------------------------------------------------

_RANK = {"h": 3, "H": 2, "a": 1, "p": 0}

# The most ordered monomial pairs (x, y) within the weight bound,
# w(x) + w(y) <= bound, that one structure table or one antipode or
# degeneration verdict may range over.  The acceptance sweep needs at
# most 3,276 (the 6-cycle families at weight 12); chain-root at d = 3
# and weight 10,000 would need over a billion, and fill the product
# memo with them.
MAX_MONOMIAL_PAIRS = 10_000


class RewriteSystem:
    """An oriented rule set over the letters h, H, a, p.

    Rules map a left-hand word to a linear combination of normal-form
    words.  Construction validates that every left-hand side is nonempty
    and that every rule strictly decreases the word order, which
    guarantees termination of ``reduce_word``; no verdict checks it
    again.  ``qfact`` holds the q-factorials of q, which delta(p) and
    the basis change read.
    """

    def __init__(self, ctx, rules, p_weight=0, h_order=None, a_bound=None,
                 qfact=None, descriptor=None, name=""):
        self.ctx = ctx
        self.p_weight = p_weight
        self.h_order = h_order
        self.a_bound = a_bound
        self.qfact = qfact
        self.descriptor = descriptor
        self.name = name or (descriptor.label() if descriptor else "ad hoc system")
        self.rules = []
        for lhs, rhs in rules:
            if not lhs:
                raise ValueError("rule with an empty left-hand side")
            terms = tuple((w, ctx.scalar(c)) for w, c in rhs
                          if not ctx.scalar(c).is_zero())
            for w, _ in terms:
                if self.word_key(w) >= self.word_key(lhs):
                    raise ValueError(
                        f"rule {lhs!r} does not decrease the word order at {w!r}")
            self.rules.append((lhs, terms))
        # (rule index, left-hand side) by first letter, in rule order
        self._by_first = {}
        for ridx, (lhs, _) in enumerate(self.rules):
            self._by_first.setdefault(lhs[0], []).append((ridx, lhs))
        self.letters = frozenset("".join(
            lhs + "".join(w for w, _ in rhs) for lhs, rhs in self.rules))
        self._nf = {}
        # (j, i, k', j') -> normal form of a^j h^i p^k' a^j', k' + j' > 0,
        # kept by _middle: an i = 0 entry (or one whose letters do not
        # q-commute with h) with every nonempty prefix a^j h^i p^f or
        # a^j h^i p^k' a^g that its one-letter fold passes, any other
        # entry alone, conjugated from its i = 0 entry
        self._prod = {}
        self._runs = self._run_letters()
        self._conj = None  # filled by _middle: _conjugations()
        self._monos = {}  # (k, j, i) -> the one PBWMonomial p^k a^j h^i
        self._delta = {}  # word -> coproduct, kept by verifier._delta_word
        self._antipode = {}  # PBW monomial -> antipode, kept by the verifier
        # the GradedHopfParams of a graded presentation, built by the first
        # verifier.verify_degeneration whose graded sibling this is
        self._graded = None
        # the PBW <-> path identification of a descriptor's presentation:
        # monomial -> (path, scalar) and path -> (monomial, scalar), kept
        # by _path_term and _pbw_term
        self._to_path = {}
        self._to_pbw = {}

    # -- word order ---------------------------------------------------------

    def word_weight(self, word):
        return sum(self.p_weight if c == "p" else 1 if c == "a" else 0
                   for c in word)

    def word_key(self, word):
        return (self.word_weight(word), len(word),
                tuple(_RANK[c] for c in word))

    # -- reduction ----------------------------------------------------------

    def _run_letters(self):
        """The letters whose trailing runs ``reduce_word`` shifts, found
        once: "hH" on a chain and "h" on a cycle (where no rule may
        mention H) when every left-hand side is an exact group-like rule
        (h^n -> 1 on a cycle, hH -> 1 or Hh -> 1 on a chain), one of
        ha, hp, Ha, Hp, or a word without h or H; else "".  Then no
        left-hand side overlaps both a word that does not end in h or H
        and a run after it, so the leftmost rewriter only carries the run
        along."""
        n, one = self.h_order, self.ctx.one()
        exact = ("hH", "Hh") if n is None else ("h" * n,)
        for lhs, rhs in self.rules:
            if lhs in exact:
                if rhs != (("", one),):
                    return ""
            elif ("h" in lhs or "H" in lhs) \
                    and not (len(lhs) == 2 and lhs[1] in "ap"):
                return ""
        return "hH" if n is None else "" if "H" in self.letters else "h"

    def _conjugations(self):
        """{x: {1: c, -1: d}} for each letter x of "ap" that h
        conjugates, found by the first middle that needs it: the runs
        shift (``_run_letters``), the first rules on hx and Hx are
        hx -> c xh and Hx -> d xH with c d = 1 (on a cycle d = c^(n-1),
        so c^n = 1).  Then the leftmost rewriter takes h^i x to
        c^i x h^i."""
        n, one = self.h_order, self.ctx.one()
        first = dict(reversed(self.rules))  # lhs -> its first rule's terms

        def coefficient(lhs):  # c of a first rule lhs -> c lhs[::-1]
            rhs = first.get(lhs, ())
            return rhs[0][1] if len(rhs) == 1 and rhs[0][0] == lhs[::-1] \
                else None

        conj = {}
        for x in "ap" if self._runs else "":
            c = coefficient("h" + x)
            if c is None:
                continue
            d = coefficient("H" + x) if n is None else c ** (n - 1)
            if d is not None and c * d == one:
                conj[x] = {1: c, -1: d}  # e -> c^e, filled by _middle
        return conj

    def _find_match(self, word):
        """The leftmost match (pos, ridx), lowest rule index first; only
        rules whose left-hand side starts with word[pos] can match."""
        by_first = self._by_first
        for pos, letter in enumerate(word):
            for ridx, lhs in by_first.get(letter, ()):
                if word.startswith(lhs, pos):
                    return pos, ridx
        return None

    def reduce_word(self, word):
        """Normal form of a single word, memoized across the reduction DAG.

        Returns (terms dict, steps), where steps counts the rewrite
        applications actually performed by this call; previously cached
        words contribute nothing.  Every intermediate word is cached, so
        rules with several right-hand terms stay polynomial instead of
        branching into exponentially many reduction paths.  A rewritten
        word's normal form sums its children's, scaled by the rule's
        coefficients: a key's first term is stored as it is, not added
        to zero, and sums that cancel are dropped.

        When the rules allow it (``_run_letters``), a word w r that
        ends in a run r of h (of h and H on a chain; on a cycle w holds
        no H) is not rewritten: its normal form is NF(w) with every h
        exponent moved by the run's exponent (``h_shift``), which is what
        the leftmost rewriter reaches, term for term.  A shift is not a
        rewrite step and is not counted.
        """
        cached = self._nf.get(word)
        if cached is not None:
            return cached, 0
        runs = self._runs
        steps = 0
        stack = [word]
        while stack:
            w = stack[-1]
            if w in self._nf:
                stack.pop()
                continue
            stem = w.rstrip(runs)
            if stem != w and (runs == "hH" or "H" not in stem):
                src = self._nf.get(stem)
                if src is None:
                    stack.append(stem)
                    continue
                e = len(w) - len(stem) - 2 * w.count("H", len(stem))
                self._nf[w] = {self.h_shift(m, e): c for m, c in src.items()}
                stack.pop()
                continue
            match = self._find_match(w)
            if match is None:
                mono = self._parse_normal_word(w)
                if mono is None:
                    raise AssertionError(
                        f"irreducible word {w!r} is not in PBW shape "
                        f"(incomplete rule set for {self.name})")
                self._nf[w] = {mono: self.ctx.one()}
                stack.pop()
                continue
            pos, ridx = match
            lhs, rhs = self.rules[ridx]
            prefix, suffix = w[:pos], w[pos + len(lhs):]
            children = [prefix + rword + suffix for rword, _ in rhs]
            pending = [cw for cw in children if cw not in self._nf]
            if pending:
                stack.extend(pending)
                continue
            out = {}
            for child, (_, rcoeff) in zip(children, rhs):
                for m, c in self._nf[child].items():
                    old = out.get(m)
                    out[m] = rcoeff * c if old is None else old + rcoeff * c
            self._nf[w] = {m: v for m, v in out.items() if not v.is_zero()}
            steps += 1
            stack.pop()
        return self._nf[word], steps

    def _parse_normal_word(self, word):
        """The PBW monomial spelled by ``word``, or None when the word is
        not of the shape p^k a^j h^i with the a- and h-powers reduced (and
        no p at all when p carries no weight).  The shape p^k a^j
        (h^i | H^i) is read by stripping each run of letters in turn."""
        rest = word.lstrip("p")
        tail = rest.lstrip("a")
        if tail and (tail[0] not in "hH" or tail.lstrip(tail[0])):
            return None
        k, j = len(word) - len(rest), len(rest) - len(tail)
        i = -len(tail) if tail[:1] == "H" else len(tail)
        if (self.a_bound is not None and j >= self.a_bound) \
                or (self.h_order is not None and i >= self.h_order) \
                or (self.p_weight == 0 and k):
            return None
        return self.interned(k, j, i)

    def interned(self, k, j, i):
        """The normal monomial p^k a^j h^i from the presentation's
        monomial table, built on first use; i must be normal."""
        key = (k, j, i)
        mono = self._monos.get(key)
        if mono is None:
            mono = self._monos[key] = PBWMonomial(k, j, i)
        return mono

    # -- the PBW basis --------------------------------------------------------

    def shapes(self, weight_bound):
        """The (k, j) of the normal monomials p^k a^j h^i of weight at
        most weight_bound, the shapes that ``_parse_normal_word``
        accepts, in weight order (j ascending within a weight); lazy, so
        that a count can stop early however large the bound."""
        pw, cap = self.p_weight, self.a_bound
        if not pw and cap is not None:
            weight_bound = min(weight_bound, cap - 1)
        for w in range(weight_bound + 1):
            for k in range(w // pw, -1, -1) if pw else (0,):
                if cap is not None and w - k * pw >= cap:
                    break
                yield k, w - k * pw

    def _i_values(self, window):
        return range(self.h_order) if self.h_order is not None else window

    def normal_monomials(self, weight_bound, window=(0,)):
        """The normal monomials of weight at most weight_bound in shape
        order, i over 0..n-1 on a cycle and over ``window`` on a chain."""
        return [self.interned(k, j, i) for k, j in self.shapes(weight_bound)
                for i in self._i_values(window)]

    def monomial_pairs(self, weight_bound, window=(0,)):
        """The ordered pairs (x, y) of ``normal_monomials`` whose weights
        sum to at most weight_bound."""
        monos = self.normal_monomials(weight_bound, window)
        weights = [self.monomial_weight(m) for m in monos]
        for x, wx in zip(monos, weights):
            for y, wy in zip(monos, weights):
                if wx + wy > weight_bound:
                    break
                yield x, y

    def pair_count(self, weight_bound, window=(0,)):
        """The number of pairs ``monomial_pairs`` yields, counted from
        the (k, j) shapes alone.  Every monomial pairs with the unit, so
        once there are more shapes than MAX_MONOMIAL_PAIRS allows, the
        count stops there and is only a lower bound."""
        width = len(self._i_values(window))
        limit = MAX_MONOMIAL_PAIRS // width ** 2 + 1
        weights = [k * self.p_weight + j for k, j in
                   islice(self.shapes(weight_bound), limit)]
        return width ** 2 * sum(bisect_right(weights, weight_bound - w)
                                for w in weights)

    # -- elements -----------------------------------------------------------

    def zero_element(self):
        return Lin(self.ctx, self)

    def one(self):
        return self.monomial(self.interned(0, 0, 0))

    def monomial(self, mono, coeff=1):
        """coeff times mono; the default int 1 stores the context's one
        without coercing it or testing it for zero."""
        out = Lin(self.ctx, self)
        if type(coeff) is int and coeff == 1:
            out.terms[mono] = self.ctx.one()
        elif not (c := self.ctx.scalar(coeff)).is_zero():
            out.terms[mono] = c
        return out

    def letter(self, sym):
        """The normal monomial of a one-letter word (h is 1 on the 1-cycle)."""
        if sym == "a":
            return self.interned(0, 1, 0)
        if sym == "p":
            return self.interned(1, 0, 0)
        return self.group_like(1 if sym == "h" else -1)

    def normal_form(self, word, coeff=1):
        """coeff times the normal form of ``word``; a letter that no
        rule mentions is not a generator and raises ValueError.

        The word is folded one letter at a time through the product
        table, NF(w s) = NF(w) * NF(s), each product added into one dict
        by ``accumulate``, so the work grows with the length of the word
        and the size of its prefixes' normal forms, not with the
        reduction paths of the whole word.  A letter stands for its
        monomial, unless it is itself a left-hand side (h -> 1 on the
        1-cycle): then it stands for that rule's right-hand side.
        """
        stray = set(word) - self.letters
        if stray:
            raise ValueError(f"letter {min(stray)!r} is not a generator "
                             f"of {self.name}")
        out = {self.interned(0, 0, 0): self.ctx.one()}
        for sym in word:
            acc = self.accumulate({}, out, self._letter_form(sym))
            out = {m: c for m, c in acc.items() if not c.is_zero()}
        result = Lin(self.ctx, self, out)
        c = self.ctx.scalar(coeff)
        return result if c == 1 else result.scale(c)

    def _letter_form(self, sym):
        """The normal form of the one-letter word ``sym`` as a
        {monomial: scalar} dict: the right-hand side of the first rule
        whose left-hand side is ``sym``, else the letter's monomial."""
        for ridx, lhs in self._by_first.get(sym, ()):
            if lhs == sym:
                out = self.zero_element()
                for rword, rcoeff in self.rules[ridx][1]:
                    out.add_scaled(self.normal_form(rword), rcoeff)
                return out.terms
        return {self.letter(sym): self.ctx.one()}

    # -- products of normal monomials ----------------------------------------

    def mono_product(self, x, y):
        """The normal form of x * y for normal monomials x, y, as a
        {monomial: scalar} dict.

        A group-like y = h^e gives the one monomial x h^e (``h_shift``)
        and reads no table entry; that dict is new.  Otherwise, in
        p^k a^j h^i * p^k' a^j' h^i' only the middle a^j h^i p^k' a^j'
        is rewritten: the outer p^k and h^i' are carried through
        unchanged.  ``_prod`` memoizes the normal form of the middle,
        keyed (j, i, k', j') with k' + j' > 0, and this method shifts its
        p exponents by k and its h exponents by i' (modulo n on cycles),
        which maps distinct monomials to distinct monomials; the shifted
        monomials are looked up in the monomial table, not built.
        ``accumulate`` applies the same rules term by term instead of
        calling this method.  When k = i' = 0 the dict is the memo entry
        itself: callers must not change it.
        """
        if not y.k and not y.j:
            return {self.h_shift(x, y.i): self.ctx.one()}
        key = (x.j, x.i, y.k, y.j)
        mid = self._prod.get(key)
        if mid is None:
            mid = self._middle(*key)
        if not x.k and not y.i:
            return mid
        k, i, n, monos = x.k, y.i, self.h_order, self._monos
        out = {}
        for m, c in mid.items():
            e = m.i + i
            key = (k + m.k, m.j, e if n is None else e % n)
            out[monos.get(key) or self.interned(*key)] = c
        return out

    def _middle(self, j, i, k, j2):
        """The normal form of a^j h^i p^k a^j2, k + j2 > 0, as a
        {monomial: scalar} dict, kept in ``_prod``.

        When i != 0 and the rules q-commute h with the letters of the
        middle, hx -> c_x xh (``_conjugations``), the middle is its
        i = 0 entry conjugated by h^i: c_p^(ik) c_a^(i j2) times that
        entry, every h exponent moved by i (``h_shift``), kept alone;
        the fold below reaches the same terms in the same order.
        Otherwise it is folded from its longest prefix in the table one
        letter at a time, NF(w x) = NF(w) * x, formed by ``accumulate``,
        and every nonempty prefix a^j h^i p^f or a^j h^i p^k a^g that it
        passes is kept.  A prefix of one letter, a^j h^i x, is
        a^j * NF(h^i x): each term p^K a^J h^I of NF(h^i x) gives
        NF(a^j p^K a^J) with the h exponents added, modulo n on cycles.
        Only these two words are reduced as words.  Each step rewrites a
        factor of the word, so the result is its normal form when the
        rule set is confluent.  Confluence is not assumed here;
        ``check_confluence`` checks it separately.
        """
        memo, one, conj = self._prod, self.ctx.one(), self._conj
        if i and conj is None:
            conj = self._conj = self._conjugations()
        if i and (not k or "p" in conj) and (not j2 or "a" in conj):
            base = memo.get((j, 0, k, j2))
            if base is None:
                base = self._middle(j, 0, k, j2)
            c = one
            for x, e in (("p", i * k), ("a", i * j2)):
                if e:
                    powers = conj[x]
                    ce = powers.get(e)
                    if ce is None:
                        ce = powers[e] = powers[1] ** e if e > 0 \
                            else powers[-1] ** -e
                    c = c * ce
            out = memo[(j, i, k, j2)] = {self.h_shift(m, i): c * v
                                         for m, v in base.items()}
            return out
        tail = "p" * k + "a" * j2
        # keys[f] is the key of the prefix a^j h^i tail[:f]
        keys = [(j, i, f, 0) for f in range(k + 1)] \
            + [(j, i, k, g) for g in range(1, j2 + 1)]
        f = len(tail)
        while f > 1 and keys[f] not in memo:
            f -= 1
        out = memo.get(keys[f])
        if out is None:
            out = memo[keys[f]] = self._short_middle(j, i, tail[:f])
        for f in range(f + 1, len(tail) + 1):
            acc = self.accumulate({}, out, {self.letter(tail[f - 1]): one})
            out = memo[keys[f]] = {m: c for m, c in acc.items()
                                   if not c.is_zero()}
        return out

    def _short_middle(self, j, i, x):
        """The normal form of a^j h^i x for x one letter, "a" or "p":
        a^j * NF(h^i x), from the words h^i x and a^j p^K a^J; a key's
        first product is stored as it is, not added to zero."""
        acc = {}
        hx, _ = self.reduce_word(self.group_like(i).word() + x)
        for m1, c1 in hx.items():
            word = "a" * j + "p" * m1.k + "a" * m1.j
            for m2, c2 in self.reduce_word(word)[0].items():
                mono = self.interned(m2.k, m2.j, self._h_exp(m2.i + m1.i))
                old = acc.get(mono)
                acc[mono] = c1 * c2 if old is None else old + c1 * c2
        return {m: c for m, c in acc.items() if not c.is_zero()}

    def _h_exp(self, i):
        return i % self.h_order if self.h_order is not None else i

    def group_like(self, i):
        """The normal monomial h^i: i modulo n on a cycle, signed on a
        chain."""
        return self.interned(0, 0, self._h_exp(i))

    def h_shift(self, x, e):
        """The normal monomial x h^e = p^k a^j h^(i+e) of a normal
        monomial x = p^k a^j h^i, from the monomial table: the exponent
        modulo n on a cycle, signed on a chain.  The word x h^e is in
        PBW shape once its h power is reduced, so no rule is read."""
        n = self.h_order
        e += x.i
        key = (x.k, x.j, e if n is None else e % n)
        return self._monos.get(key) or self.interned(*key)

    def multiply(self, x, y):
        if x.space is not self or y.space is not self:
            raise ValueError("elements belong to a different presentation")
        out = Lin(self.ctx, self)
        out.terms = {m: c for m, c in
                     self.accumulate({}, x.terms, y.terms).items()
                     if not c.is_zero()}
        return out

    def accumulate(self, acc, x, y):
        """Add x * y to ``acc`` and return it; x, y and acc are
        {normal monomial: scalar} dicts.  A sum that cancels stays in
        ``acc`` as a zero coefficient.

        A group-like factor mb = h^e adds ca * cb at ma h^e
        (``h_shift``) and reads no table entry.  Any other product of
        monomials is the ``_prod`` entry of its middle (filled by
        ``_middle`` on a miss) under the shift rule of ``mono_product``:
        p exponents up by k, h exponents up by i' (modulo n on cycles),
        the shifted monomials looked up in the monomial table.  The
        shift is applied term by term as the products are added, so no
        shifted dict is built and the entry is only read.  A key's first
        product is stored as it is, not added to zero.
        """
        memo, monos, n = self._prod, self._monos, self.h_order
        for ma, ca in x.items():
            k, j, i = ma
            for mb, cb in y.items():
                c = ca * cb
                if not mb.k and not mb.j:
                    m = self.h_shift(ma, mb.i)
                    old = acc.get(m)
                    acc[m] = c if old is None else old + c
                    continue
                mid = memo.get((j, i, mb.k, mb.j))
                if mid is None:
                    mid = self._middle(j, i, mb.k, mb.j)
                shift = mb.i
                for m, v in mid.items():
                    if k or shift:
                        e = m.i + shift
                        key = (k + m.k, m.j, e if n is None else e % n)
                        m = monos.get(key) or self.interned(*key)
                    old = acc.get(m)
                    acc[m] = c * v if old is None else old + c * v
        return acc

    def monomial_weight(self, mono):
        return mono.k * self.p_weight + mono.j

    def __repr__(self):
        return f"RewriteSystem({self.name}, {len(self.rules)} rules)"


# -- presentations of the classified families ---------------------------------

def _graded_relations(n, q, p_weight, a_bound):
    """The relations of the graded structure on the quiver, oriented
    toward p^k a^j h^i: on the n-cycle (the chain when n is None) the
    group-likes h (and H = h^-1), q-commuting with a, p central when it
    has a weight, and a^d = 0 when a is bounded by d."""
    one = q.ctx.one()
    chain = n is None
    rules = [("hH", [("", one)]), ("Hh", [("", one)])] if chain \
        else [("h" * n, [("", one)])]
    rules.append(("ha", [("ah", q)]))
    if chain:
        rules.append(("Ha", [("aH", q.inverse())]))
    if p_weight:
        rules.append(("hp", [("ph", one)]))
        if chain:
            rules.append(("Hp", [("pH", one)]))
    if a_bound is not None:
        rules.append(("a" * a_bound, []))
    if p_weight:
        rules.append(("ap", [("pa", one)]))
    return rules


def _deformation_terms(desc, qfact):
    """The lower-weight (word, scalar) terms that the family of ``desc``
    adds to the right-hand side of each graded relation, keyed by its
    left-hand side; empty on the graded families.  A zero parameter
    gives zero terms, so the graded relations come back unchanged."""
    family, q, d = desc.family, desc.q, desc.d
    lam = mu = desc.param
    if family == CHAIN_Q1:
        # g a g^{-1} = a + lambda (1 - g), oriented toward a h.
        return {"ha": [("h", lam), ("hh", -lam)],
                "Ha": [("", lam), ("H", -lam)]}
    if family == CHAIN_ROOT:
        # g p g^{-1} = p + lambda (1 - g^d) survives on the chain.  It
        # forces the commutator [a, p] = lambda a: the coproduct
        # cross-terms leave lambda (g - g^{d+1}) (x) a, and lambda a is
        # the unique skew-primitive completion.
        return {"hp": [("h", lam), ("h" * (d + 1), -lam)],
                "Hp": [("H", -lam), ("h" * (d - 1), lam)],
                "ap": [("a", lam)]}
    if family == CYCLE_DEFORM:
        return {"ap": [("a", lam)]}
    if family in _TYPE_ONE_FAMILIES or family == CYCLE_HALF:
        # a^d = mu (1 - g^d)
        terms = {"a" * d: [("", mu), ("h" * d, -mu)]}
        if family == CYCLE_HALF:
            den = qfact.fact(d - 1) if desc.half_coeff == "factorial" \
                else q_int(d - 1, q)
            c = mu * (q.ctx.one() - q) / den
            terms["ap"] = [("a", c), ("a" + "h" * d, c)]
        return terms
    return {}


def _with_terms(rules, terms):
    """``rules`` with the (word, scalar) terms that ``terms`` maps a
    left-hand side to appended to that rule's right-hand side."""
    return [(lhs, (*rhs, *terms.get(lhs, ()))) for lhs, rhs in rules]


@lru_cache(maxsize=None)
def presentation_of(desc):
    """The oriented defining relations of a family, as a RewriteSystem:
    the graded relations on its quiver plus the family's lower-weight
    deformation terms."""
    d = desc.d
    # p weighs its path length d (= n on cycle-deform); every family but
    # the type-one ones has p exactly when q has order d > 1
    has_p = (d or 0) > 1 and desc.family not in _TYPE_ONE_FAMILIES
    p_weight = d if has_p else 0
    a_bound = d if has_p or desc.family in _TYPE_ONE_FAMILIES else None
    qfact = QFactorialTable(desc.q)
    rules = _graded_relations(desc.n, desc.q, p_weight, a_bound)
    return RewriteSystem(
        desc.ctx, _with_terms(rules, _deformation_terms(desc, qfact)),
        p_weight=p_weight,
        h_order=desc.n,
        a_bound=a_bound,
        qfact=qfact,
        descriptor=desc,
    )


def as_presentation(system_or_desc):
    """A RewriteSystem unchanged; a descriptor's interned presentation."""
    if isinstance(system_or_desc, RewriteSystem):
        return system_or_desc
    return presentation_of(system_or_desc)


_WORD_TOKEN = re.compile(r"([hHapeEgG])(?:\^(-?\d+))?")

MAX_WORD_LENGTH = 10_000  # letters in a parsed word


def parse_word(text, h_order=None):
    """Parse words like "a p a h^3" into the internal letter string.

    g is an alias for h and e for a (the chain idiom).  On a cycle of
    length ``h_order`` every h power is taken modulo h_order; otherwise
    negative h powers become the inverse letter H.  A word longer than
    MAX_WORD_LENGTH letters raises ValueError before it is built.
    """
    tokens = []
    length = 0
    rest = text.replace("*", " ")
    for token in rest.split():
        m = _WORD_TOKEN.fullmatch(token)
        if not m:
            raise ValueError(f"cannot parse word token {token!r}")
        sym = {"g": "h", "G": "H", "e": "a", "E": "a"}.get(m.group(1), m.group(1))
        exp = int(m.group(2)) if m.group(2) else 1
        if sym == "h" and h_order is not None:
            exp %= h_order
        elif exp < 0:
            if sym != "h":
                raise ValueError("negative exponents only on h")
            sym, exp = "H", -exp
        length += exp
        if length > MAX_WORD_LENGTH:
            raise ValueError(
                f"word longer than {MAX_WORD_LENGTH} letters")
        tokens.append((sym, exp))
    return "".join(sym * exp for sym, exp in tokens)


def normal_form(system_or_desc, word, coeff=1):
    """Unique normal form of a free word, as an element of the presentation.

    A word in the h^e notation is parsed with h powers taken modulo the
    cycle length of the presentation, if it has one.
    """
    rs = as_presentation(system_or_desc)
    if not isinstance(word, str):
        word = "".join(word)
    if any(c not in "hHap" for c in word):
        word = parse_word(word, rs.h_order)
    return rs.normal_form(word, coeff)


def multiply_alg(system_or_desc, x, y):
    """Product in the presented algebra, through the monomial product table."""
    return as_presentation(system_or_desc).multiply(x, y)


# -- confluence ----------------------------------------------------------------

def _resolve_at(rs, word, pos, ridx):
    """Apply one specific rule at one position, then fully reduce; a
    key's first term is stored as it is, not added to zero."""
    lhs, rhs = rs.rules[ridx]
    prefix, suffix = word[:pos], word[pos + len(lhs):]
    acc = {}
    for rword, rcoeff in rhs:
        terms, _ = rs.reduce_word(prefix + rword + suffix)
        for m, c in terms.items():
            old = acc.get(m)
            acc[m] = rcoeff * c if old is None else old + rcoeff * c
    return Lin(rs.ctx, rs, acc)


def resolution_difference(rs, word, left, right):
    """Difference of the two one-step resolutions of an ambiguity.

    ``left`` and ``right`` are (position, rule-index) pairs naming the
    two overlapping redexes inside ``word``.  A zero difference means
    the ambiguity resolves.
    """
    return _resolve_at(rs, word, *left) - _resolve_at(rs, word, *right)


def _ambiguities(rs):
    found = set()
    for i1, (lhs1, _) in enumerate(rs.rules):
        for i2, (lhs2, _) in enumerate(rs.rules):
            # overlap: a proper suffix of lhs1 is a proper prefix of lhs2
            for o in range(1, min(len(lhs1), len(lhs2))):
                if lhs1[len(lhs1) - o:] == lhs2[:o]:
                    word = lhs1 + lhs2[o:]
                    found.add((word, (0, i1), (len(lhs1) - o, i2)))
            # inclusion: lhs2 a proper factor of lhs1
            if i1 != i2 and len(lhs2) < len(lhs1):
                start = lhs1.find(lhs2)
                while start >= 0:
                    found.add((lhs1, (0, i1), (start, i2)))
                    start = lhs1.find(lhs2, start + 1)
    return sorted(found)


def check_confluence(rs, degree_bound=None):
    """Audit the normal-form basis, then resolve every overlap ambiguity.

    The audit, ``irreducible words are exactly the PBW words``, has no
    bound; its witness is the shortest misclassified word
    (``_misclassified_word``).  When it fails, no ambiguity is resolved:
    the reductions assume that every irreducible word spells a PBW
    monomial.  Each ambiguity word is reduced through both overlapping
    redexes and the results compared.  ``degree_bound`` is accepted and
    ignored.
    """
    rs = as_presentation(rs)
    rep = VerificationReport(f"confluence of {rs.name}")
    bad = _misclassified_word(rs)
    rep.add("irreducible words are exactly the PBW words", bad is None,
            bad or "")
    if bad is not None:
        return rep
    for word, left, right in _ambiguities(rs):
        diff = resolution_difference(rs, word, left, right)
        rep.add(f"ambiguity {word} at {left[0]}/{right[0]}", diff.is_zero(),
                "" if diff.is_zero() else f"residual {diff}")
    return rep


def _misclassified_word(rs):
    """The shortest word over the presentation's letters, first in the
    letter order h, H, a, p, that is reducible but of PBW shape or
    irreducible but not of PBW shape; None if there is none, that is, if
    the irreducible words are exactly the PBW words.

    Both languages are closed under factors, so a shortest misclassified
    word w is a candidate below.  If w is reducible, a left-hand side in
    it is PBW-shaped, hence misclassified, hence w; if w is irreducible,
    a minimal non-PBW factor of w is irreducible, hence misclassified,
    hence w.  The minimal non-PBW words are among the one- and two-letter
    words that ``_parse_normal_word`` rejects, a^a_bound and h^h_order
    (Crochemore, Mignosi & Restivo, "Automata and forbidden words",
    IPL 67, 1998).
    """
    letters = sorted(rs.letters, key=_RANK.get, reverse=True)
    words = [x + y for x in ["", *letters] for y in letters]
    words += [c * bound for c, bound in (("a", rs.a_bound),
                                         ("h", rs.h_order))
              if c in rs.letters and bound]
    bad = [w for w in words if rs._parse_normal_word(w) is None
           and rs._find_match(w) is None]
    bad += [lhs for lhs, _ in rs.rules
            if rs._parse_normal_word(lhs) is not None]
    return min(bad, key=lambda w: (len(w), [-_RANK[c] for c in w]),
               default=None)


# -- basis change between PBW monomials and paths ------------------------------

def _path_term(rs, mono):
    """The (path, coefficient) that p^k a^j h^i maps to, from the memo
    ``rs._to_path``, keyed by the presentation's monomial; ``rs`` is a
    descriptor's presentation."""
    term = rs._to_path.get(mono)
    if term is not None:
        return term
    desc, ctx = rs.descriptor, rs.ctx
    kind = desc.path_kind
    if mono.k and not rs.p_weight:
        raise ValueError("this family has no divided-power generator")
    if not desc.is_graded:
        if mono.k == 0 and mono.j == 0:
            term = Path(kind, mono.i, 0), ctx.one()
        elif mono == (0, 1, 0):
            term = Path(kind, 0, 1), ctx.one()
        elif mono == (1, 0, 0):
            term = Path(kind, 0, rs.p_weight), ctx.one()
        else:
            raise ValueError("identification is generator-level only for "
                             "deformed families")
    else:
        term = (Path(kind, mono.i, mono.j + rs.p_weight * mono.k),
                math.factorial(mono.k) * rs.qfact.fact(mono.j))
    rs._to_path[rs.interned(*mono)] = term
    return term


def _pbw_term(rs, path):
    """The (monomial, coefficient) that a basis path maps back to, from
    the memo ``rs._to_pbw``; the monomial is the presentation's own."""
    term = rs._to_pbw.get(path)
    if term is not None:
        return term
    desc = rs.descriptor
    if not desc.is_graded:
        raise ValueError(
            "identification is generator-level only for deformed families")
    if path.kind != desc.path_kind:
        raise ValueError("path does not live on this family's quiver")
    k, j = divmod(path.length, rs.p_weight) if rs.p_weight \
        else (0, path.length)
    term = rs._to_pbw[path] = (rs.interned(k, j, path.source),
                               rs.qfact.inverse(k, j))
    return term


def pbw_to_path(desc, mono):
    """p^k a^j h^i -> k! * j!_q * p_i^(j + d*k) on the graded families.

    The ordinary factorial k! is forced by the product formula: the
    degree-d divided power satisfies p^k = k! p_0^(dk) at a root of
    unity of order d (the Gaussian binomial binom(2d, d)_q collapses to
    the integer 2, and so on).  For deformed families only the three
    generators are identified with paths.  The result is a new element
    built from the presentation's memo ``_to_path``.
    """
    path, coeff = _path_term(presentation_of(desc), mono)
    return Lin.from_path(desc.ctx, path, coeff)


def path_to_pbw(desc, path):
    """Inverse of pbw_to_path on basis paths of a graded family, a new
    element built from the presentation's memo ``_to_pbw``."""
    rs = presentation_of(desc)
    mono, coeff = _pbw_term(rs, path)
    return rs.monomial(mono, coeff)


def _map_basis(term, rs, elt, space):
    """The linear extension to ``elt`` of a basis map whose image of each
    key is one (key, scalar) term, ``term(rs, key)``, as an element of
    ``space``; every term adds into one dict, a key's first term stored
    as it is, and sums that cancel are dropped."""
    acc = {}
    for key, c in elt.terms.items():
        image, coeff = term(rs, key)
        c = c * coeff
        old = acc.get(image)
        acc[image] = c if old is None else old + c
    out = Lin(elt.ctx, space)
    out.terms = {k: c for k, c in acc.items() if not c.is_zero()}
    return out


def pbw_image(desc, x):
    """Linear extension of pbw_to_path to an element of the presentation."""
    return _map_basis(_path_term, presentation_of(desc), x, desc.path_kind)


def path_preimage(desc, elt):
    """Linear extension of path_to_pbw to a path element."""
    rs = presentation_of(desc)
    return _map_basis(_pbw_term, rs, elt, rs)


def pbw_rows(x):
    """The JSON rows {coeff, k, j, i} of an element, in (k, j, i) order."""
    return [{"coeff": str(c), "k": m.k, "j": m.j, "i": m.i}
            for m, c in x.sorted_terms()]


def structure_rows(desc, weight_bound):
    """Structure constants of the presented algebra on bounded monomials.

    Rows are {left, right, result: [{coeff, k, j, i}, ...]}, ordered by
    the (k, j, i) sort of both factors.  A bound that is not an int (a
    bool included), or that admits more than MAX_MONOMIAL_PAIRS pairs, is
    refused before any product is formed.
    """
    _require_int("weight_bound", weight_bound)
    if weight_bound < 0:
        raise ValueError("weight_bound must be non-negative")
    rs = presentation_of(desc)
    if rs.pair_count(weight_bound) > MAX_MONOMIAL_PAIRS:
        raise ValueError(f"weight bound {weight_bound} gives more than "
                         f"{MAX_MONOMIAL_PAIRS:,} monomial pairs; lower it")
    pairs = sorted(rs.monomial_pairs(weight_bound))
    return [{"left": str(x), "right": str(y),
             "result": pbw_rows(rs.multiply(rs.monomial(x), rs.monomial(y)))}
            for x, y in pairs]


# -- isomorphism classification -------------------------------------------------

def classify_iso(d1, d2):
    """Isomorphism decision between two classified descriptors.

    Isomorphic descriptors share family, cycle length and q.  Deformation
    scalars on the full cycle families are then compared up to rescaling
    over an algebraically closed field, which collapses to "both zero or
    both nonzero"; every other family compares its scalar exactly (zero
    on the graded ones).  The half-coefficient reading and provenance
    notes are presentation details and are ignored.  Descriptors should
    share a coefficient context.
    """
    if (d1.family, d1.n, d1.q) != (d2.family, d2.n, d2.q):
        return False
    if d1.family in (CYCLE_DEFORM, CYCLE_HALF):
        return d1.param.is_zero() == d2.param.is_zero()
    return d1.param == d2.param


def simple_pointed_catalog(max_n, ctx=None):
    """All simple-pointed structures with cycle parameters up to max_n.

    The list: the divided-power algebra on the one-loop quiver; the
    type-one cycle algebras for every n <= max_n and every q of order
    > 1 dividing n, with mu in {0, 1}; one representative graded chain
    with q not a root of unity (q = 2); the q = 1 chain deformation with
    lambda = 1; and the type-one chain algebras for every root order
    2..max_n, mu in {0, 1}.  Without ``ctx`` the field is the one of
    ``conductor_for(range(1, max_n + 1))``, which refuses every max_n
    from 9 on (lcm(1..9) = 2520) with ValueError.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if ctx is None:
        ctx = cyclotomic_context(conductor_for(range(1, max_n + 1)))
    entries = [cycle_graded(1, ctx.one())]
    for n in range(2, max_n + 1):
        if ctx.N % n != 0:
            raise ValueError(f"context conductor {ctx.N} cannot host order {n}")
        zn = root_of_unity(ctx, n)
        for t in range(1, n):
            q = zn ** t
            for mu in (0, 1):
                entries.append(type_one_cycle(n, q, mu))
    entries.append(chain_graded(ctx.from_rational(2)))
    entries.append(chain_q1(ctx, 1))
    for dd in range(2, max_n + 1):
        zd = root_of_unity(ctx, dd)
        for t in range(1, dd):
            if math.gcd(t, dd) != 1:
                continue
            q = zd ** t
            for mu in (0, 1):
                entries.append(type_one_chain(q, mu))
    return entries


# -- JSON (de)serialization ------------------------------------------------------

def descriptor_to_dict(desc):
    out = {"family": desc.family}
    if desc.n is not None:
        out["n"] = desc.n
    d = desc.d
    if d is not None and not desc.q.is_rational():
        out["qOrder"] = d
        # pin the exact root among the primitive d-th roots
        z = root_of_unity(desc.ctx, d)
        power = desc.ctx.one()
        for t in range(1, d + 1):
            power = power * z
            if power == desc.q:
                if t != 1:
                    out["qPower"] = t
                break
    else:
        out["q"] = str(desc.q.rational_value()) if desc.q.is_rational() \
            else str(desc.q)
    if not desc.is_graded:
        out[desc.param_name] = str(desc.param)
    if desc.family == CYCLE_HALF and desc.half_coeff != "factorial":
        out["coeffReading"] = desc.half_coeff
    return out


def check_descriptor_dict(data):
    """Return data if it is a JSON object whose n, qOrder and qPower are
    integers and whose q and deformation parameter are strings or
    integers (a JSON float is not exact); else raise ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a descriptor must be a JSON object")
    for key in ("n", "qOrder", "qPower", "q", "lambda", "mu", "param"):
        if key not in data:
            continue
        value = data[key]
        integer = isinstance(value, int) and not isinstance(value, bool)
        if key in ("n", "qOrder", "qPower"):
            if not integer:
                raise ValueError(f"descriptor field {key!r} must be an "
                                 f"integer, not {value!r}")
        elif not (integer or isinstance(value, str)):
            raise ValueError(f"descriptor field {key!r} must be a string "
                             f"or an integer, not {value!r}")
    return data


def descriptor_from_dict(data, ctx=None):
    check_descriptor_dict(data)
    family = data.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    q_order = data.get("qOrder")
    if ctx is None:
        conductor = q_order or 1
        n = data.get("n")
        if family in _CYCLE_FAMILIES and n:
            conductor = math.lcm(conductor, n)
        ctx = cyclotomic_context(conductor)
    if q_order is not None:
        q = root_of_unity(ctx, q_order) ** data.get("qPower", 1)
    elif "q" in data:
        text = str(data["q"])
        if "z" in text and ctx.N == 1:
            raise ValueError(
                "a cyclotomic q literal needs an explicit conductor")
        try:
            q = ctx.from_rational(parse_rational(text))
        except ValueError:
            q = ctx.scalar(text)
    else:
        q = ctx.one()
    param = data.get("lambda", data.get("mu", data.get("param", 0)))
    if isinstance(param, str):
        param = ctx.scalar(param)
    n = data.get("n") if family in _CYCLE_FAMILIES else None
    kwargs = {}
    if "coeffReading" in data:
        kwargs["half_coeff"] = data["coeffReading"]
    return HopfFamilyDescriptor(family, n, q, ctx.scalar(param), **kwargs)

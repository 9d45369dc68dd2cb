"""Generator/relation presentations and rewriting to PBW normal forms.

Every classified multiplication is presented on generators h (the
group-like), a (the arrow at the identity), optionally H (the inverse of
h, chains only) and p (the degree-d divided-power generator).  Each
presentation is an oriented rewriting system whose rules strictly
decrease a degree-lexicographic word order, so reduction terminates and,
once the overlap ambiguities resolve (checked, not assumed), normal
forms p^k a^j h^i are a basis.

The word order compares (total weight, length, letters) where p weighs
its path degree, a weighs 1, and h, H weigh 0; letters rank
h > H > a > p.  This orients every defining relation toward the normal
form and lets the inverse-pair and power rules shrink words.

A product of two normal monomials is straightened, not rewritten as one
word.  In p^k a^j h^i * p^k' a^j' h^i' only the middle a^j h^i p^k' a^j'
changes; ``RewriteSystem.mono_product`` memoizes its normal form in
``_prod``, keyed (j, i, k', j'), beside the word memo ``_nf``, and
carries p^k and h^i' through by shifting exponents.  A middle is
straightened once, through the normal forms of short words (h^i p^m,
a^j p^m, h^g a^j and a^x), which ``_nf`` memoizes.  ``multiply`` and
the tensor-square product of ``Lin`` read that table, so the basis
change and the degeneration check reach ``reduce_word`` only through
its entries.  ``normal_form``,
``check_confluence`` and ``resolution_difference`` (and through it the
verifier's forced-vanishing trials) call ``reduce_word`` on whole words.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

from .linear import Lin
from .quiver import Path, chain_kind, cycle_kind
from .report import VerificationReport
from .scalars import cyclotomic_context, order, q_factorial, q_int, root_of_unity

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


@dataclass(frozen=True)
class PBWMonomial:
    """The normal-form word p^k a^j h^i; i is signed for chains.

    The hash is computed once: monomials key every normal-form memo and
    every PBW element.
    """

    k: int
    j: int
    i: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.k, self.j, self.i)))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.k, self.j, self.i)

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


@dataclass(frozen=True)
class HopfFamilyDescriptor:
    """A named point of the classification: family tag plus parameters.

    ``param`` is the deformation scalar (lambda or mu depending on the
    family; zero when unused).  ``half_coeff`` selects the reading of
    the mixed-commutator coefficient in the half-order cycle family:
    "factorial" divides by (d-1)!_q, "integer" by the q-integer (d-1)_q.
    The two agree for d <= 3; the factorial reading is the one the
    coproduct-compatibility checks single out, and is the default.

    The derived invariant ``d``, the order of q (the divided-power
    degree; None if infinite), is set once, when the descriptor is
    built, and takes no part in comparison.  It stays a property over
    the stored ``_d``, so that the perfbench tracer can count its reads.
    """

    family: str
    n: object  # int for cycles, None for chains
    q: object
    param: object
    half_coeff: str = "factorial"
    notes: tuple = field(default=(), compare=False)
    _d: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        ctx = self.q.ctx
        object.__setattr__(self, "param", ctx.scalar(self.param))
        if self.half_coeff not in ("factorial", "integer"):
            raise ValueError("half_coeff must be 'factorial' or 'integer'")
        if self.family in _CYCLE_FAMILIES:
            if not isinstance(self.n, int) or self.n < 1:
                raise ValueError("cycle families need a positive integer n")
            if self.q ** self.n != ctx.one():
                raise ValueError("q must satisfy q^n = 1 on a cycle")
        else:
            if self.n is not None:
                raise ValueError("chain families carry no cycle length")
            if self.q.is_zero():
                raise ValueError("chain families need a nonzero q")
        d = order(self.q) if not self.q.is_zero() else None
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
        elif self.family in (TYPE_ONE_CYCLE, TYPE_ONE_CHAIN):
            if d is None or d < 2:
                raise ValueError(
                    "type-one families need q a root of unity of order > 1")
            self._normalize_param("mu")
        object.__setattr__(self, "_d", d)

    def _normalize_param(self, name):
        # The classification normalizes these deformation scalars to
        # {0, 1}: any nonzero value is rescaled to 1 by a coalgebra
        # automorphism, recorded as a provenance note.
        if not self.param.is_zero() and self.param != self.ctx.one():
            object.__setattr__(
                self, "notes",
                self.notes + (f"{name} rescaled to 1 (was {self.param})",))
            object.__setattr__(self, "param", self.ctx.one())

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
    def param_name(self):
        return "lambda" if self.family in _LAMBDA_FAMILIES else "mu"

    def label(self):
        bits = [self.family]
        if self.n is not None:
            bits.append(f"n={self.n}")
        bits.append(f"q={self.q}")
        if self.family not in (CYCLE_GRADED, CHAIN_GRADED):
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
# w(x) + w(y) <= bound, that one structure table or one antipode, Hopf
# or degeneration verdict may range over.  The acceptance sweep needs at
# most 3,276 (the 6-cycle families at weight 12); chain-root at d = 3
# and weight 10,000 would need over a billion, and fill the product
# memo with them.
MAX_MONOMIAL_PAIRS = 10_000

# The most normal monomials one confluence audit may predict and check.
# The acceptance sweep predicts at most 114 (the 6-cycle at weight 18).
MAX_AUDIT_MONOMIALS = 2_000


class RewriteSystem:
    """An oriented rule set over the letters h, H, a, p.

    Rules map a left-hand word to a linear combination of normal-form
    words.  Construction validates that every left-hand side is nonempty
    and that every rule strictly decreases the word order, which
    guarantees termination of ``normal_form``.  ``qfact`` holds the
    q-factorials of q, which delta(p) and the basis change read.
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
        # (j, i, k', j') -> normal form of a^j h^i p^k' a^j', kept by
        # mono_product
        self._prod = {}
        self._delta = {}  # word -> coproduct, kept by verifier._delta_word
        self._antipode = {}  # PBW monomial -> antipode, kept by the verifier

    # -- word order ---------------------------------------------------------

    def word_weight(self, word):
        return sum(self.p_weight if c == "p" else 1 if c == "a" else 0
                   for c in word)

    def word_key(self, word):
        return (self.word_weight(word), len(word),
                tuple(_RANK[c] for c in word))

    # -- reduction ----------------------------------------------------------

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
        branching into exponentially many reduction paths.
        """
        cached = self._nf.get(word)
        if cached is not None:
            return cached, 0
        zero = self.ctx.zero()
        steps = 0
        stack = [word]
        while stack:
            w = stack[-1]
            if w in self._nf:
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
                    out[m] = out.get(m, zero) + rcoeff * c
            self._nf[w] = {m: v for m, v in out.items() if not v.is_zero()}
            steps += 1
            stack.pop()
        return self._nf[word], steps

    def _parse_normal_word(self, word):
        """The PBW monomial spelled by ``word``, or None when the word is
        not of the shape p^k a^j h^i with the a- and h-powers reduced (and
        no p at all when p carries no weight)."""
        m = re.fullmatch(r"(p*)(a*)(h*|H*)", word)
        if not m:
            return None
        k = len(m.group(1))
        j = len(m.group(2))
        tail = m.group(3)
        i = len(tail) if not tail or tail[0] == "h" else -len(tail)
        if (self.a_bound is not None and j >= self.a_bound) \
                or (self.h_order is not None and i >= self.h_order) \
                or (self.p_weight == 0 and k):
            return None
        return PBWMonomial(k, j, i)

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
        return [PBWMonomial(k, j, i) for k, j in self.shapes(weight_bound)
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
        return self.monomial(PBWMonomial(0, 0, 0))

    def monomial(self, mono, coeff=1):
        return Lin(self.ctx, self, {mono: self.ctx.scalar(coeff)})

    def generator(self, sym):
        return self.normal_form(sym)

    def normal_form(self, word, coeff=1):
        """coeff times the normal form of ``word``; a letter that no
        rule mentions is not a generator and raises ValueError."""
        stray = set(word) - self.letters
        if stray:
            raise ValueError(f"letter {min(stray)!r} is not a generator "
                             f"of {self.name}")
        terms, _ = self.reduce_word(word)
        out = Lin(self.ctx, self, terms)
        c = self.ctx.scalar(coeff)
        return out if c == 1 else out.scale(c)

    # -- products of normal monomials ----------------------------------------

    def mono_product(self, x, y):
        """The normal form of x * y for normal monomials x, y, as a
        {monomial: scalar} dict.

        In p^k a^j h^i * p^k' a^j' h^i' only the middle a^j h^i p^k' a^j'
        is rewritten: the outer p^k and h^i' are carried through
        unchanged.  ``_prod`` memoizes the normal form of the middle,
        keyed (j, i, k', j'), and this method shifts its p exponents by k
        and its h exponents by i' (modulo n on cycles), which maps
        distinct monomials to distinct monomials.  When k = i' = 0 the
        dict is the memo entry itself: callers must not change it.
        """
        key = (x.j, x.i, y.k, y.j)
        mid = self._prod.get(key)
        if mid is None:
            mid = self._prod[key] = self._middle(*key)
        if not x.k and not y.i:
            return mid
        k, i, h_exp = x.k, y.i, self._h_exp
        return {PBWMonomial(k + m.k, m.j, h_exp(m.i + i)): c
                for m, c in mid.items()}

    def _middle(self, j, i, k, j2):
        """The normal form of a^j h^i p^k a^j2 as a {monomial: scalar} dict.

        It is straightened in four steps, each the normal form of a short
        generator-power word: h^i moves past p^k, a^j past the resulting
        p^m, the collected h^g past a^j2, and the collected a^x is
        reduced; h exponents add, modulo n on cycles.  Each step rewrites
        a factor of the word, so the result is its normal form when the
        rule set is confluent.  Confluence is not assumed here;
        ``check_confluence`` checks it separately.
        """
        zero = self.ctx.zero()
        acc = {}
        # 1. h^i p^k = sum of p^m h^g
        for m1, c1 in self._power_form(self._h_word(i) + "p" * k,
                                       "a").items():
            # 2. a^j p^m = sum of p^m2 a^x h^g2
            for m2, c2 in self.reduce_word("a" * j + "p" * m1.k)[0].items():
                c12 = c1 * c2
                # 3. h^(g + g2) a^j2 = sum of a^y h^g3
                h_word = self._h_word(m1.i + m2.i)
                for m3, c3 in self._power_form(h_word + "a" * j2,
                                               "p").items():
                    c123 = c12 * c3
                    # 4. a^(x + y) = sum of a^z h^w
                    for m4, c4 in self._power_form("a" * (m2.j + m3.j),
                                                   "p").items():
                        mono = PBWMonomial(m2.k, m4.j,
                                           self._h_exp(m4.i + m3.i))
                        acc[mono] = acc.get(mono, zero) + c123 * c4
        return {m: c for m, c in acc.items() if not c.is_zero()}

    def _power_form(self, word, absent):
        """The normal form of a generator-power word, which must not
        contain the generator ``absent`` ("a" or "p")."""
        terms, _ = self.reduce_word(word)
        for m in terms:
            if m.j if absent == "a" else m.k:
                raise AssertionError(
                    f"normal form {m} of {word!r} contains {absent} "
                    f"(cannot straighten products in {self.name})")
        return terms

    def _h_exp(self, i):
        return i % self.h_order if self.h_order is not None else i

    def group_like(self, i):
        """The normal monomial h^i: i modulo n on a cycle, signed on a
        chain."""
        return PBWMonomial(0, 0, self._h_exp(i))

    def _h_word(self, i):
        i = self._h_exp(i)
        return "h" * i if i >= 0 else "H" * -i

    def multiply(self, x, y):
        if x.space is not self or y.space is not self:
            raise ValueError("elements belong to a different presentation")
        acc = {}
        zero = self.ctx.zero()
        for ma, ca in x.terms.items():
            for mb, cb in y.terms.items():
                terms = self.mono_product(ma, mb)
                c = ca * cb
                for m, v in terms.items():
                    acc[m] = acc.get(m, zero) + c * v
        return Lin(self.ctx, self, acc)

    def monomial_weight(self, mono):
        return mono.k * self.p_weight + mono.j

    def __repr__(self):
        return f"RewriteSystem({self.name}, {len(self.rules)} rules)"


# -- presentations of the classified families ---------------------------------

@lru_cache(maxsize=None)
def presentation_of(desc):
    """The oriented defining relations of a family, as a RewriteSystem."""
    ctx = desc.ctx
    one = ctx.one()
    q = desc.q
    lam = desc.param
    rules = []
    chain = desc.is_chain
    d = desc.d
    qfact = QFactorialTable(q)
    # p weighs its path length d (= n on cycle-deform); a graded family
    # has p only at a root of unity of order d > 1
    has_p = desc.family in (CYCLE_DEFORM, CYCLE_HALF, CHAIN_ROOT) or (
        desc.family in (CYCLE_GRADED, CHAIN_GRADED) and (d or 0) > 1)
    p_weight = d if has_p else 0

    if chain:
        rules.append(("hH", [("", one)]))
        rules.append(("Hh", [("", one)]))
    else:
        rules.append(("h" * desc.n, [("", one)]))

    if desc.family == CHAIN_Q1:
        # g a g^{-1} = a + lambda (1 - g), oriented toward a h.
        rules.append(("ha", [("ah", one), ("h", lam), ("hh", -lam)]))
        rules.append(("Ha", [("aH", one), ("", lam), ("H", -lam)]))
    else:
        rules.append(("ha", [("ah", q)]))
        if chain:
            rules.append(("Ha", [("aH", q.inverse())]))

    if has_p:
        if desc.family == CHAIN_ROOT:
            # g p g^{-1} = p + lambda (1 - g^d) survives on the chain.
            rules.append(("hp", [("ph", one), ("h", lam),
                                 ("h" * (d + 1), -lam)]))
            rules.append(("Hp", [("pH", one), ("H", -lam),
                                 ("h" * (d - 1), lam)]))
        else:
            rules.append(("hp", [("ph", one)]))
            if chain:
                rules.append(("Hp", [("pH", one)]))

    a_bound = None
    if has_p or desc.family in (TYPE_ONE_CYCLE, TYPE_ONE_CHAIN):
        a_bound = d
        if desc.family in (CYCLE_HALF, TYPE_ONE_CYCLE, TYPE_ONE_CHAIN):
            mu = desc.param
            rules.append(("a" * d, [("", mu), ("h" * d, -mu)]))
        else:
            rules.append(("a" * d, []))

    if has_p:
        if desc.family == CYCLE_DEFORM:
            rules.append(("ap", [("pa", one), ("a", lam)]))
        elif desc.family == CYCLE_HALF:
            mu = desc.param
            den = qfact.fact(d - 1) if desc.half_coeff == "factorial" \
                else q_int(d - 1, q)
            c = mu * (one - q) / den
            rules.append(("ap", [("pa", one), ("a", c), ("a" + "h" * d, c)]))
        elif desc.family == CHAIN_ROOT:
            # The group-action deformation on p forces the commutator
            # [a, p] = lambda a: with g p g^{-1} = p + lambda (1 - g^d),
            # the coproduct cross-terms leave lambda (g - g^{d+1}) (x) a,
            # and lambda a is the unique skew-primitive completion.
            rules.append(("ap", [("pa", one), ("a", lam)]))
        else:
            rules.append(("ap", [("pa", one)]))

    return RewriteSystem(
        ctx, rules,
        p_weight=p_weight,
        h_order=None if chain else desc.n,
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
    """Apply one specific rule at one position, then fully reduce."""
    lhs, rhs = rs.rules[ridx]
    prefix, suffix = word[:pos], word[pos + len(lhs):]
    acc = {}
    zero = rs.ctx.zero()
    for rword, rcoeff in rhs:
        terms, _ = rs.reduce_word(prefix + rword + suffix)
        for m, c in terms.items():
            acc[m] = acc.get(m, zero) + rcoeff * c
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
    """Resolve every overlap ambiguity and audit the normal-form basis.

    Each ambiguity word is reduced through both overlapping redexes and
    the results compared.  When a degree bound is given, the irreducible
    monomials up to that weight are enumerated and counted against the
    predicted normal-form basis (i = 0 on a chain), and short words over
    the presentation's letters are classified exhaustively (reducible
    versus normal shape).  A bound that predicts more than
    MAX_AUDIT_MONOMIALS monomials is refused before the audit starts.
    """
    if degree_bound is not None and degree_bound < 0:
        raise ValueError("degree_bound must be non-negative")
    rs = as_presentation(rs)
    rep = VerificationReport(f"confluence of {rs.name}")
    for word, left, right in _ambiguities(rs):
        diff = resolution_difference(rs, word, left, right)
        rep.add(f"ambiguity {word} at {left[0]}/{right[0]}", diff.is_zero(),
                "" if diff.is_zero() else f"residual {diff}")
    if degree_bound is not None:
        width = len(rs._i_values((0,)))
        shapes = islice(rs.shapes(degree_bound),
                        MAX_AUDIT_MONOMIALS // width + 1)
        if width * sum(1 for _ in shapes) > MAX_AUDIT_MONOMIALS:
            raise ValueError(
                f"degree bound {degree_bound} predicts more than "
                f"{MAX_AUDIT_MONOMIALS:,} normal monomials; lower it")
        expected = rs.normal_monomials(degree_bound)
        irreducible = [m for m in expected
                       if rs._find_match(m.word()) is None]
        rep.add(
            f"normal-form count at weight <= {degree_bound}",
            len(irreducible) == len(expected),
            f"{len(irreducible)} irreducible of {len(expected)} predicted")
        alphabet = sorted(rs.letters, key=_RANK.get, reverse=True)
        max_len = 6 if rs.h_order is not None else 5
        bad = None
        for length in range(1, max_len + 1):
            for letters in product(alphabet, repeat=length):
                word = "".join(letters)
                reducible = rs._find_match(word) is not None
                if reducible == (rs._parse_normal_word(word) is not None):
                    bad = word
                    break
            if bad:
                break
        rep.add("irreducible words are exactly the PBW words "
                f"(length <= {max_len})", bad is None, bad or "")
    return rep


# -- basis change between PBW monomials and paths ------------------------------

def _path_kind(desc):
    return cycle_kind(desc.n) if not desc.is_chain else chain_kind()


def _graded_check(desc):
    if desc.family not in (CYCLE_GRADED, CHAIN_GRADED):
        raise ValueError(
            "identification is generator-level only for deformed families")


def pbw_to_path(desc, mono):
    """p^k a^j h^i -> k! * j!_q * p_i^(j + d*k) on the graded families.

    The ordinary factorial k! is forced by the product formula: the
    degree-d divided power satisfies p^k = k! p_0^(dk) at a root of
    unity of order d (the Gaussian binomial binom(2d, d)_q collapses to
    the integer 2, and so on).  For deformed families only the three
    generators are identified with paths.
    """
    ctx = desc.ctx
    kind = _path_kind(desc)
    rs = presentation_of(desc)
    if desc.family not in (CYCLE_GRADED, CHAIN_GRADED):
        if mono.k == 0 and mono.j == 0:
            return Lin.from_path(ctx, Path(kind, mono.i, 0))
        if mono == PBWMonomial(0, 1, 0):
            return Lin.from_path(ctx, Path(kind, 0, 1))
        if mono == PBWMonomial(1, 0, 0):
            return Lin.from_path(ctx, Path(kind, 0, rs.p_weight))
        raise ValueError(
            "identification is generator-level only for deformed families")
    if mono.k and not rs.p_weight:
        raise ValueError("this family has no divided-power generator")
    length = mono.j + rs.p_weight * mono.k
    coeff = math.factorial(mono.k) * rs.qfact.fact(mono.j)
    return Lin.from_path(ctx, Path(kind, mono.i, length), coeff)


def path_to_pbw(desc, path):
    """Inverse of pbw_to_path on basis paths of a graded family."""
    _graded_check(desc)
    kind = _path_kind(desc)
    if path.kind != kind:
        raise ValueError("path does not live on this family's quiver")
    rs = presentation_of(desc)
    k, j = divmod(path.length, rs.p_weight) if rs.p_weight \
        else (0, path.length)
    mono = PBWMonomial(k, j, path.source)
    return rs.monomial(mono, rs.qfact.inverse(k, j))


def pbw_image(desc, x):
    """Linear extension of pbw_to_path to an element of the presentation."""
    return x.map_terms(lambda mono: pbw_to_path(desc, mono), _path_kind(desc))


def path_preimage(desc, elt):
    """Linear extension of path_to_pbw to a path element."""
    return elt.map_terms(lambda path: path_to_pbw(desc, path),
                         presentation_of(desc))


def pbw_rows(x):
    """The JSON rows {coeff, k, j, i} of an element, in (k, j, i) order."""
    return [{"coeff": str(c), "k": m.k, "j": m.j, "i": m.i}
            for m, c in x.sorted_terms()]


def structure_rows(desc, weight_bound):
    """Structure constants of the presented algebra on bounded monomials.

    Rows are {left, right, result: [{coeff, k, j, i}, ...]}, ordered by
    the (k, j, i) sort of both factors.  A bound that admits more than
    MAX_MONOMIAL_PAIRS pairs is refused before any product is formed.
    """
    if weight_bound < 0:
        raise ValueError("weight_bound must be non-negative")
    rs = presentation_of(desc)
    if rs.pair_count(weight_bound) > MAX_MONOMIAL_PAIRS:
        raise ValueError(f"weight bound {weight_bound} gives more than "
                         f"{MAX_MONOMIAL_PAIRS:,} monomial pairs; lower it")
    pairs = sorted(rs.monomial_pairs(weight_bound),
                   key=lambda xy: (xy[0].sort_key(), xy[1].sort_key()))
    return [{"left": str(x), "right": str(y),
             "result": pbw_rows(rs.multiply(rs.monomial(x), rs.monomial(y)))}
            for x, y in pairs]


# -- isomorphism classification -------------------------------------------------

def classify_iso(d1, d2):
    """Isomorphism decision between two classified descriptors.

    Deformation scalars on the full cycle families are compared up to
    rescaling over an algebraically closed field, which collapses to
    "both zero or both nonzero"; the half-coefficient reading and
    provenance notes are presentation details and are ignored.
    Descriptors should share a coefficient context.
    """
    if d1.family != d2.family:
        return False
    f = d1.family
    if f == CYCLE_GRADED:
        return d1.n == d2.n and d1.q == d2.q
    if f == CYCLE_DEFORM or f == CYCLE_HALF:
        return (d1.n == d2.n and d1.q == d2.q
                and d1.param.is_zero() == d2.param.is_zero())
    if f == CHAIN_GRADED:
        return d1.q == d2.q
    if f == CHAIN_Q1:
        return d1.param == d2.param
    if f == CHAIN_ROOT:
        return d1.d == d2.d and d1.q == d2.q and d1.param == d2.param
    if f == TYPE_ONE_CYCLE:
        return d1.n == d2.n and d1.q == d2.q and d1.param == d2.param
    if f == TYPE_ONE_CHAIN:
        return d1.q == d2.q and d1.param == d2.param
    raise AssertionError(f)


def simple_pointed_catalog(max_n, ctx=None):
    """All simple-pointed structures with cycle parameters up to max_n.

    The list: the divided-power algebra on the one-loop quiver; the
    type-one cycle algebras for every n <= max_n and every q of order
    > 1 dividing n, with mu in {0, 1}; one representative graded chain
    with q not a root of unity (q = 2); the q = 1 chain deformation with
    lambda = 1; and the type-one chain algebras for every root order
    2..max_n, mu in {0, 1}.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if ctx is None:
        ctx = cyclotomic_context(math.lcm(*range(1, max_n + 1)))
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
    if desc.family not in (CYCLE_GRADED, CHAIN_GRADED):
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
            q = ctx.from_rational(Fraction(text))
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

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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

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
    """The normal-form word p^k a^j h^i; i is signed for chains."""

    k: int
    j: int
    i: int

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

    The derived invariants are set once, when the descriptor is built:
    ``d`` is the order of q (the divided-power degree; None if
    infinite), ``has_p`` says whether p is a generator, ``p_length`` is
    the path length of p (0 without p), and ``a_bound`` is the exponent
    bound of an a^d rule (or None).  ``qfact`` is the descriptor's own
    q-factorial table.  None of them takes part in comparison.  ``d``
    stays a property over the stored ``_d``, so that the perfbench
    tracer can count its reads.
    """

    family: str
    n: object  # int for cycles, None for chains
    q: object
    param: object
    half_coeff: str = "factorial"
    notes: tuple = field(default=(), compare=False)
    _d: object = field(init=False, compare=False, repr=False)
    has_p: bool = field(init=False, compare=False, repr=False)
    p_length: int = field(init=False, compare=False, repr=False)
    a_bound: object = field(init=False, compare=False, repr=False)
    qfact: QFactorialTable = field(init=False, compare=False, repr=False)

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
        graded_p = self.family in (CYCLE_GRADED, CHAIN_GRADED) \
            and d is not None and d > 1
        if self.family == CYCLE_DEFORM:
            a_bound = p_length = self.n
        elif graded_p or self.family in (CYCLE_HALF, CHAIN_ROOT):
            a_bound = p_length = d
        elif self.family in (TYPE_ONE_CYCLE, TYPE_ONE_CHAIN):
            a_bound, p_length = d, 0
        else:
            a_bound, p_length = None, 0
        for name, value in (("_d", d), ("has_p", p_length > 0),
                            ("p_length", p_length), ("a_bound", a_bound),
                            ("qfact", QFactorialTable(self.q))):
            object.__setattr__(self, name, value)

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


class RewriteSystem:
    """An oriented rule set over the letters h, H, a, p.

    Rules map a left-hand word to a linear combination of normal-form
    words.  Construction validates that every rule strictly decreases
    the word order, which guarantees termination of ``normal_form``.
    """

    def __init__(self, ctx, rules, p_weight=0, h_order=None, a_bound=None,
                 descriptor=None, name=""):
        self.ctx = ctx
        self.p_weight = p_weight
        self.h_order = h_order
        self.a_bound = a_bound
        self.descriptor = descriptor
        self.name = name or (descriptor.label() if descriptor else "ad hoc system")
        self.rules = []
        for lhs, rhs in rules:
            terms = tuple((w, ctx.scalar(c)) for w, c in rhs
                          if not ctx.scalar(c).is_zero())
            for w, _ in terms:
                if self.word_key(w) >= self.word_key(lhs):
                    raise ValueError(
                        f"rule {lhs!r} does not decrease the word order at {w!r}")
            self.rules.append((lhs, terms))
        self.letters = frozenset("".join(
            lhs + "".join(w for w, _ in rhs) for lhs, rhs in self.rules))
        self._nf = {}

    # -- word order ---------------------------------------------------------

    def word_weight(self, word):
        return sum(self.p_weight if c == "p" else 1 if c == "a" else 0
                   for c in word)

    def word_key(self, word):
        return (self.word_weight(word), len(word),
                tuple(_RANK[c] for c in word))

    # -- reduction ----------------------------------------------------------

    def _find_match(self, word):
        for pos in range(len(word)):
            for ridx, (lhs, _) in enumerate(self.rules):
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

    def multiply(self, x, y):
        if x.space is not self or y.space is not self:
            raise ValueError("elements belong to a different presentation")
        acc = {}
        zero = self.ctx.zero()
        for ma, ca in x.terms.items():
            word_a = ma.word()
            for mb, cb in y.terms.items():
                terms, _ = self.reduce_word(word_a + mb.word())
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
    a_bound = desc.a_bound
    p_weight = desc.p_length

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

    if desc.has_p:
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

    if a_bound is not None:
        if desc.family in (CYCLE_HALF, TYPE_ONE_CYCLE, TYPE_ONE_CHAIN):
            mu = desc.param
            rules.append(("a" * a_bound, [("", mu), ("h" * d, -mu)]))
        else:
            rules.append(("a" * a_bound, []))

    if desc.has_p:
        if desc.family == CYCLE_DEFORM:
            rules.append(("ap", [("pa", one), ("a", lam)]))
        elif desc.family == CYCLE_HALF:
            mu = desc.param
            den = desc.qfact.fact(d - 1) if desc.half_coeff == "factorial" \
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
        descriptor=desc,
    )


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
    rs = system_or_desc
    if isinstance(system_or_desc, HopfFamilyDescriptor):
        rs = presentation_of(system_or_desc)
    if not isinstance(word, str):
        word = "".join(word)
    if any(c not in "hHap" for c in word):
        word = parse_word(word, rs.h_order)
    return rs.normal_form(word, coeff)


def multiply_alg(desc, x, y):
    """Product in the presented algebra (concatenate words, reduce)."""
    rs = presentation_of(desc) if isinstance(desc, HopfFamilyDescriptor) else desc
    return rs.multiply(x, y)


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
    predicted normal-form basis, and short words are classified
    exhaustively (reducible versus normal shape).
    """
    if degree_bound is not None and degree_bound < 0:
        raise ValueError("degree_bound must be non-negative")
    if isinstance(rs, HopfFamilyDescriptor):
        rs = presentation_of(rs)
    rep = VerificationReport(f"confluence of {rs.name}")
    for word, left, right in _ambiguities(rs):
        diff = resolution_difference(rs, word, left, right)
        rep.add(f"ambiguity {word} at {left[0]}/{right[0]}", diff.is_zero(),
                "" if diff.is_zero() else f"residual {diff}")
    if degree_bound is not None and rs.descriptor is not None:
        expected = _pbw_monomials(rs.descriptor, degree_bound)
        irreducible = [m for m in expected
                       if rs._find_match(m.word()) is None]
        rep.add(
            f"normal-form count at weight <= {degree_bound}",
            len(irreducible) == len(expected),
            f"{len(irreducible)} irreducible of {len(expected)} predicted")
        alphabet = "hHa" if rs.descriptor.is_chain else "ha"
        if rs.descriptor.has_p:
            alphabet += "p"
        max_len = 5 if rs.descriptor.is_chain else 6
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


def _pbw_monomials(desc, weight_bound, i_values=None):
    """Predicted normal-form monomials of bounded weight.

    The weightless h exponent ranges over 0..n-1 on cycles; for chains
    it is unbounded and only i = 0 representatives are enumerated unless
    explicit values are given.
    """
    if i_values is None:
        i_values = range(desc.n) if not desc.is_chain else (0,)
    a_cap = desc.a_bound if desc.a_bound is not None else weight_bound + 1
    out = []
    k_max = weight_bound // desc.p_length if desc.has_p else 0
    for k in range(k_max + 1):
        base = k * desc.p_length
        for j in range(min(a_cap, weight_bound - base + 1)):
            for i in i_values:
                out.append(PBWMonomial(k, j, i))
    return out


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
    if desc.family not in (CYCLE_GRADED, CHAIN_GRADED):
        if mono.k == 0 and mono.j == 0:
            return Lin.from_path(ctx, Path(kind, mono.i, 0))
        if mono == PBWMonomial(0, 1, 0):
            return Lin.from_path(ctx, Path(kind, 0, 1))
        if mono == PBWMonomial(1, 0, 0):
            return Lin.from_path(ctx, Path(kind, 0, desc.p_length))
        raise ValueError(
            "identification is generator-level only for deformed families")
    d = desc.d
    if desc.has_p:
        length = mono.j + d * mono.k
    else:
        if mono.k:
            raise ValueError("this family has no divided-power generator")
        length = mono.j
    coeff = math.factorial(mono.k) * desc.qfact.fact(mono.j)
    return Lin.from_path(ctx, Path(kind, mono.i, length), coeff)


def path_to_pbw(desc, path):
    """Inverse of pbw_to_path on basis paths of a graded family."""
    _graded_check(desc)
    kind = _path_kind(desc)
    if path.kind != kind:
        raise ValueError("path does not live on this family's quiver")
    rs = presentation_of(desc)
    if desc.has_p:
        d = desc.d
        k, j = divmod(path.length, d)
    else:
        k, j = 0, path.length
    mono = PBWMonomial(k, j, path.source)
    return rs.monomial(mono, desc.qfact.inverse(k, j))


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
    the (k, j, i) sort of both factors.
    """
    if weight_bound < 0:
        raise ValueError("weight_bound must be non-negative")
    rs = presentation_of(desc)
    monos = sorted(_pbw_monomials(desc, weight_bound),
                   key=PBWMonomial.sort_key)
    rows = []
    for x in monos:
        for y in monos:
            if rs.monomial_weight(x) + rs.monomial_weight(y) > weight_bound:
                continue
            prod = rs.multiply(rs.monomial(x), rs.monomial(y))
            rows.append({"left": str(x), "right": str(y),
                         "result": pbw_rows(prod)})
    return rows


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


def descriptor_from_dict(data, ctx=None):
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

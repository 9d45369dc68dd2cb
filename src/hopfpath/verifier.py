"""Hopf-axiom verification for the presented families.

Everything here works abstractly in PBW coordinates: the coproducts of
the generators are fixed (h group-like, a skew-primitive, p the path
coproduct of the degree-d divided power rewritten through
a^l g^i = l!_q p_i^l), extended multiplicatively, and every axiom is
checked by exact computation in the tensor-square algebra.  Antipodes
are solved from the convolution equation, never assumed; ``verify_antipode``
checks the two-sided axioms monomial by monomial up to a weight, and
``verify_hopf`` is a finite certificate: Delta, epsilon and S relation by
relation, every overlap ambiguity, and the coalgebra and antipode axioms
on the generators alone.

Every public entry takes a ``RewriteSystem`` or a descriptor and
resolves it once (``as_presentation``); the helpers take the
presentation, whose q-factorial table ``qfact`` delta(p) reads.  The
memos live on the presentation too: ``RewriteSystem._delta`` maps a
word to its coproduct and holds every prefix that a fold meets (a
generator's coproduct is the entry of its one-letter word), and
``RewriteSystem._antipode`` maps a PBW monomial to its antipode (a
generator's antipode is the entry of its letter monomial, and any other
monomial's is one product: the entry of the suffix left when its first
letter is removed, times that letter's image).
Every product in the presentation or its tensor square reads the
presentation's monomial product table, ``RewriteSystem._prod``, keyed
by the middle a^j h^i p^k' a^j' of the product, unless its right factor
is a group-like h^e, which only moves the h exponent
(``RewriteSystem.h_shift``): delta(w h) shifts both factors of each
term of delta(w), and forms no product; only the overlap
ambiguities of ``verify_hopf`` and the forced-vanishing trials reduce
whole words, through ``resolution_difference``.  The antipode
convolutions add each product straight into one dict per axiom through
``RewriteSystem.accumulate``, the loop that ``RewriteSystem.multiply``
runs, which reads the table's entries itself.  The degeneration
verdict works on monomial and path pairs: it reads each middle's
product-table entry once per verdict into its leading terms, which a
pair shifts, and maps the graded path product back through the graded
presentation's PBW <-> path table (``RewriteSystem._to_path`` and
``_to_pbw``), forming each graded coefficient once per verdict for each
pair of shapes and coefficient id.  Those two tables are the verdict's
locals; the path products are read from the ``GradedHopfParams`` that
the graded presentation keeps (``RewriteSystem._graded``), so each is
formed once per sibling, not once per verdict.  This module keeps no
cache of its own;
``presentation_of.cache_clear()`` frees every memo.  A degree bound of
``verify_antipode``, ``compute_antipode`` or ``verify_degeneration`` that
admits more than MAX_MONOMIAL_PAIRS monomial pairs is refused before any
product is formed.  ``verify_hopf`` accepts a degree bound and ignores
it: its basis audit (``check_confluence``) has no bound.

The forced-vanishing suite replays the obstruction arguments that cut
the classification down: each candidate deformation is a classified
presentation with trial terms appended to the rules they deform, and the
relevant overlap ambiguity is resolved both ways; the residual is
exactly the obstruction, zero at the classified parameter values and
nonzero otherwise.
"""

from __future__ import annotations

from .graded import GradedHopfParams, _fill
from .linear import Lin
from .presentations import (
    MAX_MONOMIAL_PAIRS, RewriteSystem, as_presentation, chain_graded,
    check_confluence, cycle_deform, cycle_graded, presentation_of,
    resolution_difference, _path_term, _pbw_term, _with_terms,
)
from .quiver import _require_int
from .report import VerificationReport
from .scalars import root_of_unity

__all__ = [
    "MAX_MONOMIAL_PAIRS",
    "TensorAlg",
    "generator_coproducts",
    "coproduct",
    "verify_relation_coproducts",
    "compute_antipode",
    "verify_antipode",
    "verify_degeneration",
    "verify_hopf",
    "forced_vanishing_suite",
]


# the h exponents of the chain monomials the verifiers check
_CHAIN_WINDOW = range(-2, 3)

TensorAlg = Lin  # the square of a presentation rs is a Lin over (rs, rs)


def generator_coproducts(system):
    """Coproducts of the generators, as tensor-square elements.

    delta(h) = h (x) h, delta(a) = a (x) 1 + h (x) a, and for the
    divided-power generator the path coproduct rewritten in PBW terms:

        delta(p) = p (x) 1 + h^d (x) p
                 + sum_{l=1..d-1} a^(d-l) h^l (x) a^l / ((d-l)!_q l!_q).
    """
    rs = as_presentation(system)
    return {sym: _delta_word(rs, sym).copy()
            for sym in "hHap" if sym in rs.letters}


def _delta_word(rs, word):
    """Coproduct of a generator word: delta(w s) = delta(w) * delta(s).

    The fold starts at the longest prefix of word already in the
    presentation's memo (the empty word is the unit of the tensor
    square), multiplies in the remaining letters one at a time and
    memoizes every prefix it reaches, so no word is too long for it.
    A group-like letter, delta(h^e) = h^e (x) h^e with e = 1 for h and
    -1 for H, shifts both factors of every term of delta(w)
    (``RewriteSystem.h_shift``) and forms no product.  Every letter
    goes through ``_generator_delta`` first, so a letter that is not a
    generator raises ValueError.
    """
    memo = rs._delta
    start = len(word)
    while start and word[:start] not in memo:
        start -= 1
    out = memo.get(word[:start])
    if out is None:
        unit = rs.interned(0, 0, 0)
        out = memo[""] = Lin(rs.ctx, (rs, rs),
                             {(unit, unit): rs.ctx.one()})
    shift = rs.h_shift
    for end in range(start + 1, len(word) + 1):
        sym = word[end - 1]
        delta = _generator_delta(rs, sym)
        if sym in ("h", "H"):
            e = 1 if sym == "h" else -1
            terms = {(shift(l, e), shift(r, e)): c
                     for (l, r), c in out.terms.items()}
            out = Lin(rs.ctx, out.space)
            out.terms = terms
        else:
            out = out * delta
        memo[word[:end]] = out
    return out


def _generator_delta(rs, sym):
    """The coproduct of one generator: h and H are group-like, and
    delta(a) and delta(p) are the formulas of ``generator_coproducts``.
    A non-generator, or p without ``rs.qfact``, raises ValueError."""
    out = rs._delta.get(sym)
    if out is not None:
        return out
    if sym not in rs.letters:
        raise ValueError(f"letter {sym!r} is not a generator of {rs.name}")
    ctx, square, one = rs.ctx, (rs, rs), rs.ctx.one()
    unit, x = rs.interned(0, 0, 0), rs.letter(sym)
    if sym in ("h", "H"):
        out = Lin(ctx, square, {(x, x): one})
    elif sym == "a":
        out = Lin(ctx, square, {(x, unit): one, (rs.group_like(1), x): one})
    else:
        if rs.qfact is None:
            raise ValueError(f"{rs.name} has no q-factorial table")
        d, fact = rs.p_weight, rs.qfact.fact
        terms = {(x, unit): one, (rs.group_like(d), x): one}
        for l in range(1, d):
            coeff = (fact(d - l) * fact(l)).inverse()
            left = rs.interned(0, d - l, rs.group_like(l).i)
            terms[(left, rs.interned(0, l, 0))] = coeff
        out = Lin(ctx, square, terms)
    rs._delta[sym] = out
    return out


def coproduct(system, x):
    """Coproduct of an algebra element, linearly extended.  An element
    of another presentation, or of a path space, raises ValueError."""
    rs = as_presentation(system)
    if x.space is not rs:
        raise ValueError("elements belong to a different presentation")
    return x.map_terms(lambda mono: _delta_word(rs, mono.word()), (rs, rs))


def _word_counit(rs, word):
    """Counit of a generator word: 0 once a or p occurs, else 1 (h^i)."""
    return rs.ctx.zero() if ("a" in word or "p" in word) else rs.ctx.one()


def _rule_text(lhs, rhs):
    """A rule L -> R as checks name it: ``ap -> (1) pa + (1) a``."""
    return f"{lhs} -> " + (" + ".join(f"({c}) {w or '1'}" for w, c in rhs)
                           or "0")


def verify_relation_coproducts(system):
    """Check that delta and epsilon respect every defining relation.

    For a rule L -> R this computes delta(L) letterwise and delta(R)
    termwise in the tensor-square algebra and asserts exact equality,
    then the same for the counit.  This is the deformation-constraint
    computation run forward.
    """
    rs = as_presentation(system)
    rep = VerificationReport(f"coproduct compatibility of {rs.name}")
    for lhs, rhs in rs.rules:
        delta_l = _delta_word(rs, lhs)
        delta_r = Lin(rs.ctx, (rs, rs))
        eps_r = rs.ctx.zero()
        for rword, rcoeff in rhs:
            delta_r.add_scaled(_delta_word(rs, rword), rcoeff)
            eps_r = eps_r + _word_counit(rs, rword) * rcoeff
        rule = _rule_text(lhs, rhs)
        diff = delta_l - delta_r
        rep.add(f"delta respects {rule}", diff.is_zero(),
                "" if diff.is_zero() else f"residual {diff}")
        eps_l = _word_counit(rs, lhs)
        rep.add(f"counit respects {rule}",
                (eps_l - eps_r).is_zero(),
                "" if (eps_l - eps_r).is_zero() else
                f"epsilon(L) = {eps_l}, epsilon(R) = {eps_r}")
    return rep


# -- antipode -------------------------------------------------------------------

def _antipode_generators(rs):
    """Solve S on the generators from the left convolution equation.

    The images go into the presentation's antipode memo under the
    letter monomials, the group-likes first, so the lower terms of a
    and p meet only letters that are already solved.  S(x) is minus the
    sum of the lower terms c S(u) v of delta(x), since epsilon(a) =
    epsilon(p) = 0; they are added into one dict, as in ``_convolutions``.
    """
    memo = rs._antipode
    syms = [sym for sym in "hHap" if sym in rs.letters]
    if all(rs.letter(sym) in memo for sym in syms):
        return
    unit = rs.interned(0, 0, 0)
    inverse = {"h": rs.group_like(-1), "H": rs.group_like(1)}
    for sym in syms:
        letter = rs.letter(sym)
        if sym in inverse:
            # check the group-like solve: S(h) h = 1
            image = rs.monomial(inverse[sym])
            if rs.multiply(image, rs.normal_form(sym)) != rs.one():
                raise ArithmeticError(
                    "no antipode: group-like is not invertible")
            memo[letter] = image
            continue
        delta = _generator_delta(rs, sym)
        lead = (letter, unit)
        if delta.coefficient(lead) != 1:
            raise ArithmeticError(
                "no antipode: convolution equation is not monic")
        acc = {}
        for (u, v), c in delta.terms.items():
            if (u, v) == lead:
                continue
            if sym in u.word():
                raise ArithmeticError(
                    "no antipode: coproduct is not filtration-triangular")
            rs.accumulate(acc, _antipode_mono(rs, u).terms, {v: -c})
        memo[letter] = Lin(rs.ctx, rs, acc)


def _antipode_mono(rs, mono):
    """S(mono) for a normal monomial p^k a^j h^i, memoized under
    ``rs.interned(*mono)`` whatever the caller passed, so the memo holds
    only monomial-table objects.

    S is anti-multiplicative, so S(x w) = S(w) S(x) for the first letter
    x: each antipode is one product of the antipode of the memoized
    suffix, p^(k-1) a^j h^i, else a^(j-1) h^i, else h^(i -+ 1), and a
    generator image.  Every suffix down to the longest one already in
    the memo (the unit at worst) is memoized on the way.  These are the
    products of ``_antipode_word``'s reversed fold, in the same order.
    """
    memo = rs._antipode
    out = memo.get(mono)
    if out is not None:
        return out
    if any(rs.letter(sym) not in memo for sym in set(mono.word())):
        _antipode_generators(rs)
    # the suffixes missing from the memo, each with the image of its
    # first letter
    missing = []
    k, j, i = mono
    rest = rs.interned(k, j, i)
    while (out := memo.get(rest)) is None:
        if k:
            sym, k = "p", k - 1
        elif j:
            sym, j = "a", j - 1
        elif i:
            sym, i = ("h", i - 1) if i > 0 else ("H", i + 1)
        else:
            out = memo[rest] = rs.one()
            break
        missing.append((rest, memo[rs.letter(sym)]))
        rest = rs.interned(k, j, i)
    for rest, image in reversed(missing):
        out = memo[rest] = rs.multiply(out, image)
    return out


def _antipode_word(rs, word):
    """S of a word, normal or not: its generator images in reverse order."""
    memo = rs._antipode
    # the solve asks only for words over letters it has solved, so
    # testing the letters (not the memo) keeps it from re-entering
    if any(rs.letter(sym) not in memo for sym in word):
        _antipode_generators(rs)
    out = rs.one()
    for sym in reversed(word):
        out = rs.multiply(out, memo[rs.letter(sym)])
    return out


def _monomials(system, weight_bound):
    return as_presentation(system).normal_monomials(weight_bound,
                                                    _CHAIN_WINDOW)


def _check_degree_bound(rs, degree_bound):
    """Refuse, before any product is formed, a bound below 1 (it would
    check nothing and still pass) or one over MAX_MONOMIAL_PAIRS."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be at least 1")
    if rs.pair_count(degree_bound, _CHAIN_WINDOW) > MAX_MONOMIAL_PAIRS:
        raise ValueError(f"degree bound {degree_bound} gives more than "
                         f"{MAX_MONOMIAL_PAIRS:,} monomial pairs; lower it")


def _convolutions(rs, delta):
    """m(S (x) id)(delta) and m(id (x) S)(delta) for a tensor-square
    element delta: each term c u (x) v adds c S(u) v, and c u S(v), to
    one accumulator."""
    left, right = {}, {}
    for (u, v), c in delta.terms.items():
        rs.accumulate(left, _antipode_mono(rs, u).terms, {v: c})
        rs.accumulate(right, {u: c}, _antipode_mono(rs, v).terms)
    return Lin(rs.ctx, rs, left), Lin(rs.ctx, rs, right)


def _antipode_axiom_failures(rs, monos):
    """First monomial violating each of the two convolution axioms."""
    bad_left = bad_right = None
    for mono in monos:
        word = mono.word()
        expected = rs.one().scale(_word_counit(rs, word))
        left, right = _convolutions(rs, _delta_word(rs, word))
        if bad_left is None and left != expected:
            bad_left = f"{mono}: m(S (x) id)delta = {left}"
        if bad_right is None and right != expected:
            bad_right = f"{mono}: m(id (x) S)delta = {right}"
        if bad_left and bad_right:
            break
    return bad_left, bad_right


def compute_antipode(system, degree_bound):
    """The antipode on all PBW monomials of weight <= degree_bound.

    S is solved on the generators from m(S (x) id)delta = unit counit,
    recursing along the coradical filtration, and extended
    anti-multiplicatively; both convolution axioms are then verified on
    the returned monomials, not assumed.  A failure raises: it
    falsifies the presentation rather than returning a bogus map.  A
    bound that is not an int (a bool included) is refused before any
    work.
    """
    _require_int("degree_bound", degree_bound)
    rs = as_presentation(system)
    _check_degree_bound(rs, degree_bound)
    monos = _monomials(rs, degree_bound)
    table = {mono: _antipode_mono(rs, mono).copy() for mono in monos}
    bad_left, bad_right = _antipode_axiom_failures(rs, monos)
    if bad_left or bad_right:
        raise ArithmeticError(f"no antipode: {bad_left or bad_right}")
    return table


def _check_antipode(rep, rs, monos, label):
    """Add the antipode solve and both antipode axioms on ``monos``,
    named ``label``, to rep; return whether S was solved."""
    try:
        _antipode_generators(rs)
    except ArithmeticError as exc:
        rep.add("antipode solve", False, str(exc))
        return False
    rep.add("antipode solve", True)
    bad_left, bad_right = _antipode_axiom_failures(rs, monos)
    rep.add(f"left antipode axiom on {label}", bad_left is None,
            bad_left or "")
    rep.add(f"right antipode axiom on {label}", bad_right is None,
            bad_right or "")
    return True


def verify_antipode(system, degree_bound):
    """Both antipode axioms on every monomial of bounded weight; a bound
    that is not an int (a bool included) is refused before any work."""
    _require_int("degree_bound", degree_bound)
    rs = as_presentation(system)
    _check_degree_bound(rs, degree_bound)
    rep = VerificationReport(f"antipode of {rs.name}")
    monos = _monomials(rs, degree_bound)
    _check_antipode(rep, rs, monos, f"{len(monos)} monomials")
    return rep


def _check_coalgebra_on_generators(rep, rs, syms):
    """Add, for each generator x, coassociativity (delta (x) id)delta(x)
    = (id (x) delta)delta(x) in the tensor cube and the counit axiom
    (eps (x) id)delta(x) = x = (id (x) eps)delta(x) to rep."""
    ctx, cube = rs.ctx, (rs, rs, rs)

    def split_left(uv):
        u, v = uv
        return Lin(ctx, cube, {(*pair, v): c for pair, c
                               in _delta_word(rs, u.word()).terms.items()})

    def split_right(uv):
        u, v = uv
        return Lin(ctx, cube, {(u, *pair): c for pair, c
                               in _delta_word(rs, v.word()).terms.items()})

    for sym in syms:
        delta = _generator_delta(rs, sym)
        diff = delta.map_terms(split_left, cube) \
            - delta.map_terms(split_right, cube)
        rep.add(f"coassociativity on {sym}", diff.is_zero(),
                "" if diff.is_zero() else f"residual {diff}")
        x = rs.monomial(rs.letter(sym))
        left = delta.map_terms(lambda uv: rs.monomial(
            uv[1], _word_counit(rs, uv[0].word())), rs)
        right = delta.map_terms(lambda uv: rs.monomial(
            uv[0], _word_counit(rs, uv[1].word())), rs)
        bad = f"(eps (x) id)delta = {left}" if left != x \
            else f"(id (x) eps)delta = {right}" if right != x else ""
        rep.add(f"counit axiom on {sym}", not bad, bad)


def verify_hopf(system, degree_bound):
    """A finite certificate that the presentation is a Hopf algebra.

    It checks, in this order:

    - Delta and epsilon respect every rule (``verify_relation_coproducts``);
    - coassociativity and the counit axiom on each generator;
    - the irreducible words are exactly the PBW words, and every overlap
      ambiguity resolves (``check_confluence``);
    - S solves on the generators, and both antipode axioms hold on them;
    - S, the reversed product of generator images, respects every rule.

    The premises that make this finite: the rules terminate, because
    the ``RewriteSystem`` constructor refuses a rule that does not
    decrease the word order, so with every ambiguity resolved the
    diamond lemma (Bergman, Adv. Math. 29, 1978) makes the normal
    monomials a basis and the product associative.  Delta and epsilon
    respecting every rule makes them algebra maps, and S respecting
    every rule makes it anti-multiplicative.  Each axiom then holds on
    the whole algebra because it holds on the generators.  Both sides
    of coassociativity and of the counit axiom are algebra maps.  The x
    with m(S (x) id)delta(x) = epsilon(x) 1 form a subalgebra, since
    S(x1 y1) x2 y2 = S(y1) S(x1) x2 y2 sums to epsilon(x) epsilon(y),
    and the same holds on the right (Kassel, Quantum Groups, GTM 155,
    ch. III).  So no monomial or monomial pair is checked.

    ``degree_bound`` is accepted and ignored.  The basis audit runs
    first; when it fails, the report holds it alone, since every other
    check reduces words on the PBW basis that the audit refuted.
    """
    rs = as_presentation(system)
    rep = VerificationReport(f"Hopf axioms of {rs.name}")
    confluence = check_confluence(rs)
    if not confluence.checks[0].passed:
        return rep.extend(confluence)
    syms = [sym for sym in "hHap" if sym in rs.letters]
    rep.extend(verify_relation_coproducts(rs))
    _check_coalgebra_on_generators(rep, rs, syms)
    rep.extend(confluence)
    if not _check_antipode(rep, rs, [rs.letter(sym) for sym in syms],
                           "generators " + ", ".join(syms)):
        return rep
    for lhs, rhs in rs.rules:
        diff = _antipode_word(rs, lhs)
        for rword, rcoeff in rhs:
            diff.add_scaled(_antipode_word(rs, rword), -rcoeff)
        rep.add(f"antipode respects {_rule_text(lhs, rhs)}", diff.is_zero(),
                "" if diff.is_zero() else f"residual {diff}")
    return rep


# -- degeneration ----------------------------------------------------------------

def _graded_sibling(desc):
    return chain_graded(desc.q) if desc.is_chain \
        else cycle_graded(desc.n, desc.q)


def verify_degeneration(system, degree_bound):
    """Leading-weight structure constants must be the graded ones.

    Monomials carry the filtration weight w(p^k a^j h^i) = k*d_p + j.
    For every monomial pair within the total weight bound, the
    deformed product is compared against the graded product computed
    independently on the path side (closed product formula transported
    through the basis identification); the difference must sit in
    strictly lower weight.  Both sides stay on basis keys, and each
    piece of work is done once per verdict for each key it depends on.

    Deformed side: x * y = p^k (a^j h^i p^k' a^j') h^i' for x = p^k a^j h^i
    and y = p^k' a^j' h^i', so it is the middle's normal form, the
    presentation's ``_prod`` entry (``_middle`` fills it on a miss; a
    group-like y leaves the normal middle a^j h^i), with p exponents
    shifted by k and h exponents by i' (modulo n on a cycle).  The
    shift adds k*d_p to every weight, so each middle (j, i, k', j') is
    read once per verdict into its weight excess over j + k'*d_p + j'
    and its terms (k, j, i, c) of that weight, and a pair only shifts
    that list.  Graded side: the graded presentation keeps one
    ``GradedHopfParams`` (``RewriteSystem._graded``), built by the first
    verdict on that sibling and shared by every later one, since its
    tables are append-only and its ids never change.  A pair reads the
    row entry of its two image paths' ids inline, ``_fill`` forms it on a
    miss, once per params, and the product path is mapped back through
    the graded presentation's path -> PBW table.  Its
    coefficient cx*cy*coeff*inverse is formed once per verdict for each
    (k, j, k', j', coefficient id): the image coefficients cx = k!*j!_q
    and cy depend only on the shapes, and the inverse of the product
    path's image coefficient only on its length, the sum of theirs.
    Elements are built only to render a failure.  A system without a
    descriptor raises ValueError, and a bound that is not an int (a bool
    included) is refused before any work.
    """
    _require_int("degree_bound", degree_bound)
    rs = as_presentation(system)
    desc = rs.descriptor
    if desc is None:
        raise ValueError(f"{rs.name} has no descriptor, so no graded layer")
    _check_degree_bound(rs, degree_bound)
    gdesc = _graded_sibling(desc)
    grs = presentation_of(gdesc)
    params = grs._graded
    if params is None:
        params = grs._graded = GradedHopfParams(gdesc.path_kind, gdesc.q)
    rep = VerificationReport(f"degeneration of {rs.name}")
    images = {}
    for m in _monomials(rs, degree_bound):
        path, coeff = _path_term(grs, m)
        images[m] = params._path_id(path), coeff
    paths, coeffs, rows = params._paths, params._coeffs, params._rows
    prod, one = rs._prod, rs.ctx.one()
    pw, n = rs.p_weight, rs.h_order
    # (j, i, k', j') -> (weight excess, leading terms (k, j, i, c));
    # (k, j, k', j', coefficient id) -> graded coefficient, None if zero
    middles, graded_coeffs = {}, {}
    pairs = 0
    bad = None
    for x, y in rs.monomial_pairs(degree_bound, _CHAIN_WINDOW):
        pairs += 1
        key = (x.j, x.i, y.k, y.j)
        lead = middles.get(key)
        if lead is None:
            j, i, k2, j2 = key
            if k2 or j2:
                mid = prod.get(key)
                if mid is None:
                    mid = rs._middle(*key)
            else:
                mid = {rs.interned(0, j, i): one}
            base = j + k2 * pw + j2
            top = max((m.k * pw + m.j for m in mid), default=base)
            lead = middles[key] = (top - base, [
                (*m, c) for m, c in mid.items()
                if m.k * pw + m.j == base])
        excess, terms = lead
        if excess > 0:
            w = x.k * pw + x.j + y.k * pw + y.j
            bad = f"{x} * {y} has weight {w + excess} > {w}"
            break
        (idx, cx), (idy, cy) = images[x], images[y]
        out = rows[idx].get(idy, False)
        if out is False:
            out = _fill(params, idx, idy)
        c = None
        if out is not None:
            pid, cid = out
            ckey = (x.k, x.j, y.k, y.j, cid)
            c = graded_coeffs.get(ckey, False)
            if c is False:
                inverse = _pbw_term(grs, paths[pid])[1]
                c = cx * cy * coeffs[cid] * inverse
                c = graded_coeffs[ckey] = None if c.is_zero() else c
        if c is None:
            if not terms:
                continue
        elif len(terms) == 1:
            mono = _pbw_term(grs, paths[pid])[0]
            mk, mj, mi, mc = terms[0]
            e = mi + y.i
            if (x.k + mk, mj, e if n is None else e % n) == mono \
                    and mc == c:
                continue
        top = {}
        for mk, mj, mi, mc in terms:
            e = mi + y.i
            top[rs.interned(x.k + mk, mj, e if n is None else e % n)] = mc
        graded = {} if c is None else \
            {_pbw_term(grs, paths[pid])[0]: c}
        bad = (f"{x} * {y}: leading part {Lin(rs.ctx, rs, top)} "
               f"differs from graded {Lin(rs.ctx, grs, graded)}")
        break
    rep.add(f"filtered products match the graded layer on {pairs} pairs",
            bad is None, bad or "")
    return rep


# -- forced-vanishing obstructions ------------------------------------------------

def _trial_system(desc, terms, name):
    """``presentation_of(desc)`` with the (word, scalar) terms that
    ``terms`` maps a left-hand side to appended to that rule's right-hand
    side; rule order, weights, bounds and qfact stay, the descriptor does not.
    """
    base = presentation_of(desc)
    return RewriteSystem(base.ctx, _with_terms(base.rules, terms),
                         p_weight=base.p_weight, h_order=base.h_order,
                         a_bound=base.a_bound, qfact=base.qfact, name=name)


def _is_obstruction(diff, expected):
    """A nonzero residual equal to ``expected`` up to sign (the sign
    depends on which resolution is subtracted)."""
    return not diff.is_zero() and (diff == expected or diff == -expected)


def forced_vanishing_suite(ctx, n=4, d=2, trials=(1, 2)):
    """Replay the four obstruction arguments with trial parameters.

    Each candidate deformation that the classification excludes is a
    classified presentation plus trial terms (``_trial_system``); the
    overlap ambiguity that encodes the argument is resolved both ways.
    The residual must vanish exactly at the classified parameter values
    and equal its closed form, up to sign, at every trial value.
    Requires d | n with 1 < d < n, nonzero trials and conductor divisible by n.
    """
    if not (1 < d < n) or n % d != 0:
        raise ValueError("need a proper divisor 1 < d < n")
    if any(t == 0 for t in trials):
        raise ValueError("trial values must be nonzero; 0 is always checked")
    one = ctx.one()
    rep = VerificationReport(
        f"forced-vanishing obstructions at n = {n}, d = {d}")

    # conjugating a by the full group cycle: g a g^{-1} = a + lam (1 - g)
    def commutation_trial(lam):
        return _trial_system(cycle_graded(n, one),
                             {"ha": [("h", lam), ("hh", -lam)]},
                             f"q=1 cycle, trial lambda={lam}")

    word = "h" * n + "a"
    for lam in trials:
        rs = commutation_trial(lam)
        diff = resolution_difference(rs, word, (0, 0), (n - 1, 1))
        expected = rs.normal_form("", n * lam) - rs.normal_form("h", n * lam)
        rep.add(f"group-cycle obstruction is n*lambda*(1-g) at lambda={lam}",
                _is_obstruction(diff, expected), f"residual {diff}")
    rs = commutation_trial(0)
    rep.add("group-cycle obstruction vanishes at lambda=0",
            resolution_difference(rs, word, (0, 0), (n - 1, 1)).is_zero())

    # full-order cycle: [a, p] = lambda a + mu (1 - g); a^n = 0 kills mu,
    # the residual is n*mu*a^(n-1)
    def full_order_trial(mu):
        return _trial_system(cycle_deform(n, root_of_unity(ctx, n), 1),
                             {"ap": [("", mu), ("h", -mu)]},
                             f"full-order cycle, trial mu={mu}")

    word = "a" * n + "p"
    for mu in trials:
        rs = full_order_trial(mu)
        diff = resolution_difference(rs, word, (0, 3), (n - 1, 4))
        expected = rs.normal_form("a" * (n - 1), n * mu)
        rep.add(f"nilpotency obstruction is nonzero at mu={mu}",
                _is_obstruction(diff, expected), f"residual {diff}")
    rs = full_order_trial(0)
    rep.add("nilpotency obstruction vanishes at mu=0 (lambda free)",
            resolution_difference(rs, word, (0, 3), (n - 1, 4)).is_zero())

    # intermediate-order cycle: g p g^{-1} = p + nu (1 - g^d)
    qd = root_of_unity(ctx, d)

    def group_p_trial(nu):
        return _trial_system(cycle_graded(n, qd),
                             {"hp": [("h", nu), ("h" * (d + 1), -nu)]},
                             f"intermediate cycle, trial nu={nu}")

    word = "h" * n + "p"
    for nu in trials:
        rs = group_p_trial(nu)
        diff = resolution_difference(rs, word, (0, 0), (n - 1, 2))
        expected = rs.normal_form("", n * nu) - rs.normal_form("h" * d, n * nu)
        rep.add(f"group-action obstruction is n*nu*(1-g^d) at nu={nu}",
                _is_obstruction(diff, expected), f"residual {diff}")
    rs = group_p_trial(0)
    rep.add("group-action obstruction vanishes at nu=0",
            resolution_difference(rs, word, (0, 0), (n - 1, 2)).is_zero())

    # chain at root order d: e^d = lam (1 - g^d) and a mu term both die,
    # while the group-action deformation alpha on p survives; the
    # residuals are d*lam*(c (1 - g^(2d)) + g^d - g^(2d)) with
    # c = lam (1 - q) / (d-1)!_q, and d*mu*e^(d-1)
    chain = chain_graded(qd)

    def chain_coeff(lam):
        return lam * (one - qd) / presentation_of(chain).qfact.fact(d - 1)

    def chain_trial(lam, mu, alpha):
        c = chain_coeff(lam)
        return _trial_system(chain, {
            "hp": [("h", alpha), ("h" * (d + 1), -alpha)],
            "Hp": [("H", -alpha), ("h" * (d - 1), alpha)],
            "a" * d: [("", lam), ("h" * d, -lam)],
            "ap": [("a", c), ("a" + "h" * d, c),
                   ("", mu), ("h" * (d + 1), -mu)],
        }, f"chain at order {d}, trial lambda={lam}, mu={mu}")

    word = "a" * d + "p"
    for t in trials:
        rs = chain_trial(t, 0, 1)
        diff = resolution_difference(rs, word, (0, 6), (d - 1, 7))
        c = chain_coeff(t)
        expected = (rs.normal_form("", c) + rs.normal_form("h" * d)
                    - rs.normal_form("h" * (2 * d), c + one)).scale(d * t)
        rep.add(f"chain obstruction is nonzero at lambda={t}",
                _is_obstruction(diff, expected), f"residual {diff}")
        rs = chain_trial(0, t, 1)
        diff = resolution_difference(rs, word, (0, 6), (d - 1, 7))
        expected = rs.normal_form("a" * (d - 1), d * t)
        rep.add(f"chain obstruction is nonzero at mu={t}",
                _is_obstruction(diff, expected), f"residual {diff}")
    rs = chain_trial(0, 0, 1)
    rep.add("chain obstruction vanishes at lambda=mu=0 (alpha free)",
            resolution_difference(rs, word, (0, 6), (d - 1, 7)).is_zero())
    return rep

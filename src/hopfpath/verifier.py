"""Hopf-axiom verification for the presented families.

Everything here works abstractly in PBW coordinates: the coproducts of
the generators are fixed (h group-like, a skew-primitive, p the path
coproduct of the degree-d divided power rewritten through
a^l g^i = l!_q p_i^l), extended multiplicatively, and every axiom is
checked by exact computation in the tensor-square algebra.  Antipodes
are solved from the convolution equation, never assumed, and the
two-sided axioms are then verified monomial by monomial.

The forced-vanishing suite replays the obstruction arguments that cut
the classification down: each candidate deformation is installed with a
trial parameter and the relevant overlap ambiguity of the rewriting
system is resolved both ways; the residual is exactly the obstruction,
zero at the classified parameter values and nonzero otherwise.
"""

from __future__ import annotations

from .graded import GradedHopfParams, multiply as graded_multiply
from .linear import Lin
from .presentations import (
    CHAIN_Q1, CYCLE_DEFORM, CYCLE_GRADED, CYCLE_HALF, TYPE_ONE_CYCLE,
    PBWMonomial, RewriteSystem,
    chain_graded, cycle_graded, path_preimage, pbw_image, presentation_of,
    resolution_difference, _pbw_monomials,
)
from .report import VerificationReport
from .scalars import q_factorial, root_of_unity

__all__ = [
    "TensorAlg",
    "generator_coproducts",
    "coproduct",
    "counit_alg",
    "verify_relation_coproducts",
    "compute_antipode",
    "verify_antipode",
    "verify_degeneration",
    "verify_hopf",
    "forced_vanishing_suite",
]


TensorAlg = Lin  # the square of a presentation rs is a Lin over (rs, rs)


_DELTA_CACHE = {}


def _cache(desc):
    entry = _DELTA_CACHE.get(desc)
    if entry is None:
        entry = {"gen": None, "pow": {}, "word": {}, "S": {}}
        _DELTA_CACHE[desc] = entry
    return entry


def generator_coproducts(desc):
    """Coproducts of the generators, as tensor-square elements.

    delta(h) = h (x) h, delta(a) = a (x) 1 + h (x) a, and for the
    divided-power generator the path coproduct rewritten in PBW terms:

        delta(p) = p (x) 1 + h^d (x) p
                 + sum_{l=1..d-1} a^(d-l) h^l (x) a^l / ((d-l)!_q l!_q).
    """
    entry = _cache(desc)
    if entry["gen"] is not None:
        return entry["gen"]
    rs = presentation_of(desc)
    ctx, square = rs.ctx, (rs, rs)
    one = ctx.one()
    unit = PBWMonomial(0, 0, 0)
    h1 = PBWMonomial(0, 0, 1)
    a1 = PBWMonomial(0, 1, 0)
    gen = {"h": Lin(ctx, square, {(h1, h1): one})}
    if desc.is_chain:
        hm1 = PBWMonomial(0, 0, -1)
        gen["H"] = Lin(ctx, square, {(hm1, hm1): one})
    gen["a"] = Lin(ctx, square, {(a1, unit): one, (h1, a1): one})
    if desc.has_p:
        d = desc.d
        p1 = PBWMonomial(1, 0, 0)
        hd = PBWMonomial(0, 0, d % desc.n if not desc.is_chain else d)
        terms = {(p1, unit): one, (hd, p1): one}
        fact = desc.qfact.fact
        for l in range(1, d):
            coeff = (fact(d - l) * fact(l)).inverse()
            left = PBWMonomial(0, d - l, l % desc.n if not desc.is_chain else l)
            terms[(left, PBWMonomial(0, l, 0))] = coeff
        gen["p"] = Lin(ctx, square, terms)
    entry["gen"] = gen
    return gen


def _delta_word(desc, word):
    """Coproduct of a generator word (multiplicative extension)."""
    entry = _cache(desc)
    cached = entry["word"].get(word)
    if cached is not None:
        return cached
    rs = presentation_of(desc)
    ctx, square = rs.ctx, (rs, rs)
    gen = generator_coproducts(desc)
    unit = PBWMonomial(0, 0, 0)
    out = Lin(ctx, square, {(unit, unit): ctx.one()})
    # group runs of equal letters and reuse cached powers
    pos = 0
    while pos < len(word):
        sym = word[pos]
        run = 1
        while pos + run < len(word) and word[pos + run] == sym:
            run += 1
        if sym in ("h", "H"):
            i = run if sym == "h" else -run
            if not desc.is_chain:
                i %= desc.n
            g = PBWMonomial(0, 0, i)
            out = out * Lin(ctx, square, {(g, g): ctx.one()})
        else:
            powers = entry["pow"].setdefault(
                sym, [Lin(ctx, square, {(unit, unit): ctx.one()})])
            while len(powers) <= run:
                powers.append(powers[-1] * gen[sym])
            out = out * powers[run]
        pos += run
    entry["word"][word] = out
    return out


def coproduct(desc, x):
    """Coproduct of an algebra element, linearly extended."""
    rs = presentation_of(desc)
    return x.map_terms(lambda mono: _delta_word(desc, mono.word()), (rs, rs))


def counit_alg(desc, x):
    """Counit: 1 on group-likes h^i, 0 on a and p, linearly extended."""
    total = desc.ctx.zero()
    for mono, c in x.terms.items():
        if mono.k == 0 and mono.j == 0:
            total = total + c
    return total


def _word_counit(desc, word):
    return desc.ctx.zero() if ("a" in word or "p" in word) else desc.ctx.one()


def verify_relation_coproducts(desc):
    """Check that delta and epsilon respect every defining relation.

    For a rule L -> R this computes delta(L) letterwise and delta(R)
    termwise in the tensor-square algebra and asserts exact equality,
    then the same for the counit.  This is the deformation-constraint
    computation run forward.
    """
    rs = presentation_of(desc)
    rep = VerificationReport(f"coproduct compatibility of {desc.label()}")
    for lhs, rhs in rs.rules:
        delta_l = _delta_word(desc, lhs)
        delta_r = Lin(rs.ctx, (rs, rs))
        eps_r = desc.ctx.zero()
        for rword, rcoeff in rhs:
            delta_r.add_scaled(_delta_word(desc, rword), rcoeff)
            eps_r = eps_r + _word_counit(desc, rword) * rcoeff
        rhs_text = " + ".join(f"({c}) {w or '1'}" for w, c in rhs) or "0"
        diff = delta_l - delta_r
        rep.add(f"delta respects {lhs} -> {rhs_text}", diff.is_zero(),
                "" if diff.is_zero() else f"residual {diff}")
        eps_l = _word_counit(desc, lhs)
        rep.add(f"counit respects {lhs} -> {rhs_text}",
                (eps_l - eps_r).is_zero(),
                "" if (eps_l - eps_r).is_zero() else
                f"epsilon(L) = {eps_l}, epsilon(R) = {eps_r}")
    return rep


# -- antipode -------------------------------------------------------------------

def _antipode_generators(desc):
    """Solve S on the generators from the left convolution equation."""
    entry = _cache(desc)
    if "Sgen" in entry:
        return entry["Sgen"]
    rs = presentation_of(desc)
    gen_delta = generator_coproducts(desc)
    unit = PBWMonomial(0, 0, 0)
    images = {}
    if desc.is_chain:
        images["h"] = rs.monomial(PBWMonomial(0, 0, -1))
        images["H"] = rs.monomial(PBWMonomial(0, 0, 1))
    else:
        images["h"] = rs.monomial(PBWMonomial(0, 0, (desc.n - 1) % desc.n))
    # check the group-like solve: S(h) h = 1
    for sym in ("h", "H") if desc.is_chain else ("h",):
        check = rs.multiply(images[sym], rs.generator(sym))
        if check != rs.one():
            raise ArithmeticError("no antipode: group-like is not invertible")

    def s_word(word):
        out = rs.one()
        for sym in reversed(word):
            out = rs.multiply(out, images[sym])
        return out

    for sym in ("a", "p"):
        if sym == "p" and not desc.has_p:
            continue
        lead = (PBWMonomial(0, 1, 0) if sym == "a" else PBWMonomial(1, 0, 0),
                unit)
        if gen_delta[sym].coefficient(lead) != 1:
            raise ArithmeticError(
                "no antipode: convolution equation is not monic")

        def lower(uv):
            u, v = uv
            if uv == lead:
                return rs.zero_element()
            if sym in u.word():
                raise ArithmeticError(
                    "no antipode: coproduct is not filtration-triangular")
            return rs.multiply(s_word(u.word()), rs.monomial(v))
        # S(x) = -sum of the lower terms, since epsilon(a) = epsilon(p) = 0
        images[sym] = -gen_delta[sym].map_terms(lower, rs)
    entry["Sgen"] = images
    return images


def _antipode_mono(desc, mono):
    entry = _cache(desc)
    cached = entry["S"].get(mono)
    if cached is not None:
        return cached
    rs = presentation_of(desc)
    images = _antipode_generators(desc)
    out = rs.one()
    for sym in reversed(mono.word()):
        out = rs.multiply(out, images[sym])
    entry["S"][mono] = out
    return out


def _antipode_elt(desc, x):
    return x.map_terms(lambda mono: _antipode_mono(desc, mono))


def _monomials(desc, weight_bound, chain_window=(-2, 2)):
    i_values = None if not desc.is_chain else range(chain_window[0],
                                                    chain_window[1] + 1)
    return _pbw_monomials(desc, weight_bound, i_values)


def _check_degree_bound(degree_bound):
    # a bound below 1 would check nothing and still pass
    if degree_bound < 1:
        raise ValueError("degree_bound must be at least 1")


def _antipode_axiom_failures(desc, monos):
    """First monomial violating each of the two convolution axioms."""
    rs = presentation_of(desc)

    def s_left(uv):
        return rs.multiply(_antipode_mono(desc, uv[0]), rs.monomial(uv[1]))

    def s_right(uv):
        return rs.multiply(rs.monomial(uv[0]), _antipode_mono(desc, uv[1]))

    bad_left = bad_right = None
    for mono in monos:
        delta = _delta_word(desc, mono.word())
        eps = desc.ctx.one() if mono.j == 0 and mono.k == 0 else desc.ctx.zero()
        expected = rs.one().scale(eps)
        left = delta.map_terms(s_left, rs)
        right = delta.map_terms(s_right, rs)
        if bad_left is None and left != expected:
            bad_left = f"{mono}: m(S (x) id)delta = {left}"
        if bad_right is None and right != expected:
            bad_right = f"{mono}: m(id (x) S)delta = {right}"
        if bad_left and bad_right:
            break
    return bad_left, bad_right


def compute_antipode(desc, degree_bound):
    """The antipode on all PBW monomials of weight <= degree_bound.

    S is solved on the generators from m(S (x) id)delta = unit counit,
    recursing along the coradical filtration, and extended
    anti-multiplicatively; both convolution axioms are then verified on
    the returned monomials, not assumed.  A failure raises: it
    falsifies the descriptor rather than returning a bogus map.
    """
    _check_degree_bound(degree_bound)
    monos = _monomials(desc, degree_bound)
    table = {mono: _antipode_mono(desc, mono) for mono in monos}
    bad_left, bad_right = _antipode_axiom_failures(desc, monos)
    if bad_left or bad_right:
        raise ArithmeticError(f"no antipode: {bad_left or bad_right}")
    return table


def verify_antipode(desc, degree_bound):
    """Both antipode axioms on every monomial of bounded weight."""
    _check_degree_bound(degree_bound)
    rep = VerificationReport(f"antipode of {desc.label()}")
    try:
        _antipode_generators(desc)
    except ArithmeticError as exc:
        rep.add("antipode solve", False, str(exc))
        return rep
    rep.add("antipode solve", True)
    monos = _monomials(desc, degree_bound)
    bad_left, bad_right = _antipode_axiom_failures(desc, monos)
    rep.add(f"left antipode axiom on {len(monos)} monomials",
            bad_left is None, bad_left or "")
    rep.add(f"right antipode axiom on {len(monos)} monomials",
            bad_right is None, bad_right or "")
    return rep


def verify_hopf(desc, degree_bound):
    """Relations + antipode + multiplicativity of the counit."""
    _check_degree_bound(degree_bound)
    rep = verify_relation_coproducts(desc)
    rep.extend(verify_antipode(desc, degree_bound))
    rs = presentation_of(desc)
    monos = _monomials(desc, max(1, degree_bound // 2))
    bad_eps = bad_anti = None
    for x in monos:
        ex = rs.monomial(x)
        sx = _antipode_mono(desc, x)
        for y in monos:
            if rs.monomial_weight(x) + rs.monomial_weight(y) > degree_bound:
                continue
            ey = rs.monomial(y)
            prod = rs.multiply(ex, ey)
            if bad_eps is None:
                eps_prod = counit_alg(desc, prod)
                eps_xy = counit_alg(desc, ex) * counit_alg(desc, ey)
                if eps_prod != eps_xy:
                    bad_eps = f"epsilon({x} * {y})"
            if bad_anti is None:
                s_prod = _antipode_elt(desc, prod)
                s_rev = rs.multiply(_antipode_mono(desc, y), sx)
                if s_prod != s_rev:
                    bad_anti = f"S({x} * {y}) != S({y}) S({x})"
        if bad_eps and bad_anti:
            break
    rep.add("counit is an algebra map on tested pairs",
            bad_eps is None, bad_eps or "")
    rep.add("antipode is anti-multiplicative on tested pairs",
            bad_anti is None, bad_anti or "")
    return rep


# -- degeneration ----------------------------------------------------------------

def _graded_sibling(desc):
    if desc.family in (CYCLE_DEFORM, CYCLE_HALF, CYCLE_GRADED,
                       TYPE_ONE_CYCLE):
        return cycle_graded(desc.n, desc.q)
    if desc.family == CHAIN_Q1:
        return chain_graded(desc.ctx.one())
    return chain_graded(desc.q)


def verify_degeneration(desc, degree_bound):
    """Leading-weight structure constants must be the graded ones.

    Monomials carry the filtration weight w(p^k a^j h^i) = k*d_p + j.
    For every monomial pair within the total weight bound, the
    deformed product is compared against the graded product computed
    independently on the path side (closed product formula transported
    through the basis identification); the difference must sit in
    strictly lower weight.
    """
    _check_degree_bound(degree_bound)
    rs = presentation_of(desc)
    gdesc = _graded_sibling(desc)
    kind = ("cycle", desc.n) if not desc.is_chain else ("chain",)
    params = GradedHopfParams(kind, gdesc.q)
    rep = VerificationReport(f"degeneration of {desc.label()}")
    monos = _monomials(desc, degree_bound)
    images = {m: pbw_image(gdesc, rs.monomial(m)) for m in monos}
    weights = {m: rs.monomial_weight(m) for m in monos}
    pairs = 0
    bad = None
    for x in monos:
        for y in monos:
            w = weights[x] + weights[y]
            if w > degree_bound:
                continue
            pairs += 1
            deformed = rs.multiply(rs.monomial(x), rs.monomial(y))
            top_weight = deformed.weight()
            if top_weight is not None and top_weight > w:
                bad = f"{x} * {y} has weight {top_weight} > {w}"
                break
            graded = path_preimage(
                gdesc, graded_multiply(params, images[x], images[y]))
            top = deformed.weight_part(w)
            if top.terms != graded.terms:
                bad = (f"{x} * {y}: leading part {top} "
                       f"differs from graded {graded}")
                break
        if bad:
            break
    rep.add(f"filtered products match the graded layer on {pairs} pairs",
            bad is None, bad or "")
    return rep


# -- forced-vanishing obstructions ------------------------------------------------

def forced_vanishing_suite(ctx, n=4, d=2, trials=(1, 2)):
    """Replay the four obstruction arguments with trial parameters.

    Each candidate deformation that the classification excludes is
    installed with a trial scalar; the overlap ambiguity that encodes
    the argument is resolved both ways.  The residual must vanish
    exactly at the classified parameter values.  Requires d | n with
    1 < d < n and conductor divisible by n.
    """
    if not (1 < d < n) or n % d != 0:
        raise ValueError("need a proper divisor 1 < d < n")
    one = ctx.one()
    rep = VerificationReport(
        f"forced-vanishing obstructions at n = {n}, d = {d}")

    # conjugating a by the full group cycle: g a g^{-1} = a + lam (1 - g)
    def commutation_trial(lam):
        lam = ctx.scalar(lam)
        return RewriteSystem(ctx, [
            ("h" * n, [("", one)]),
            ("ha", [("ah", one), ("h", lam), ("hh", -lam)]),
        ], name=f"q=1 cycle, trial lambda={lam}")

    word = "h" * n + "a"
    for lam in trials:
        rs = commutation_trial(lam)
        diff = resolution_difference(rs, word, (0, 0), (n - 1, 1))
        expected = rs.normal_form("", n * lam) - rs.normal_form("h", n * lam)
        rep.add(f"group-cycle obstruction is n*lambda*(1-g) at lambda={lam}",
                (not diff.is_zero()) and (diff == expected or diff == -expected),
                f"residual {diff}")
    rs = commutation_trial(0)
    rep.add("group-cycle obstruction vanishes at lambda=0",
            resolution_difference(rs, word, (0, 0), (n - 1, 1)).is_zero())

    # full-order cycle: [a, p] = lambda a + mu (1 - g); a^n = 0 kills mu
    qn = root_of_unity(ctx, n)

    def full_order_trial(lam, mu):
        lam, mu = ctx.scalar(lam), ctx.scalar(mu)
        return RewriteSystem(ctx, [
            ("h" * n, [("", one)]),
            ("ha", [("ah", qn)]),
            ("hp", [("ph", one)]),
            ("a" * n, []),
            ("ap", [("pa", one), ("a", lam), ("", mu), ("h", -mu)]),
        ], p_weight=n, h_order=n, a_bound=n,
            name=f"full-order cycle, trial mu={mu}")

    word = "a" * n + "p"
    for mu in trials:
        rs = full_order_trial(1, mu)
        diff = resolution_difference(rs, word, (0, 3), (n - 1, 4))
        rep.add(f"nilpotency obstruction is nonzero at mu={mu}",
                not diff.is_zero(), f"residual {diff}")
    rs = full_order_trial(1, 0)
    rep.add("nilpotency obstruction vanishes at mu=0 (lambda free)",
            resolution_difference(rs, word, (0, 3), (n - 1, 4)).is_zero())

    # intermediate-order cycle: g p g^{-1} = p + nu (1 - g^d)
    qd = root_of_unity(ctx, d)

    def group_p_trial(nu):
        nu = ctx.scalar(nu)
        return RewriteSystem(ctx, [
            ("h" * n, [("", one)]),
            ("ha", [("ah", qd)]),
            ("hp", [("ph", one), ("h", nu), ("h" * (d + 1), -nu)]),
            ("a" * d, []),
            ("ap", [("pa", one)]),
        ], p_weight=d, h_order=n, a_bound=d,
            name=f"intermediate cycle, trial nu={nu}")

    word = "h" * n + "p"
    for nu in trials:
        rs = group_p_trial(nu)
        diff = resolution_difference(rs, word, (0, 0), (n - 1, 2))
        expected = rs.normal_form("", n * nu) - rs.normal_form("h" * d, n * nu)
        rep.add(f"group-action obstruction is n*nu*(1-g^d) at nu={nu}",
                (not diff.is_zero()) and (diff == expected or diff == -expected),
                f"residual {diff}")
    rs = group_p_trial(0)
    rep.add("group-action obstruction vanishes at nu=0",
            resolution_difference(rs, word, (0, 0), (n - 1, 2)).is_zero())

    # chain at root order d: e^d = lam (1 - g^d) and a mu term both die,
    # while the group-action deformation alpha on p survives
    def chain_trial(lam, mu, alpha):
        lam, mu, alpha = ctx.scalar(lam), ctx.scalar(mu), ctx.scalar(alpha)
        c = lam * (one - qd) / q_factorial(d - 1, qd)
        return RewriteSystem(ctx, [
            ("hH", [("", one)]),
            ("Hh", [("", one)]),
            ("ha", [("ah", qd)]),
            ("Ha", [("aH", qd.inverse())]),
            ("hp", [("ph", one), ("h", alpha), ("h" * (d + 1), -alpha)]),
            ("Hp", [("pH", one), ("H", -alpha), ("h" * (d - 1), alpha)]),
            ("a" * d, [("", lam), ("h" * d, -lam)]),
            ("ap", [("pa", one), ("a", c), ("a" + "h" * d, c),
                    ("", mu), ("h" * (d + 1), -mu)]),
        ], p_weight=d, a_bound=d,
            name=f"chain at order {d}, trial lambda={lam}, mu={mu}")

    word = "a" * d + "p"
    for t in trials:
        rs = chain_trial(t, 0, 1)
        diff = resolution_difference(rs, word, (0, 6), (d - 1, 7))
        rep.add(f"chain obstruction is nonzero at lambda={t}",
                not diff.is_zero(), f"residual {diff}")
        rs = chain_trial(0, t, 1)
        diff = resolution_difference(rs, word, (0, 6), (d - 1, 7))
        rep.add(f"chain obstruction is nonzero at mu={t}",
                not diff.is_zero(), f"residual {diff}")
    rs = chain_trial(0, 0, 1)
    rep.add("chain obstruction vanishes at lambda=mu=0 (alpha free)",
            resolution_difference(rs, word, (0, 6), (d - 1, 7)).is_zero())
    return rep

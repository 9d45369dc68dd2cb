"""Acceptance suite: every check is an exact identity (zero tolerance).

Each criterion prints one PASS/FAIL line; run with ``pytest -s`` to see
the lines inline.  The scales (cycle lengths up to 6, path lengths up to
5, weight bounds 2n and 3n, trial parameters {0, 1, 2}) are fixed here,
not configurable, so a green run certifies the full contract.
"""

from fractions import Fraction

from hopfpath import (
    CoalgElement, GradedHopfParams, PBWMonomial, binom_vanishes,
    chain_automorphism, chain_graded, chain_kind, chain_q1, chain_root,
    check_confluence, classify_iso, comultiply, counit, cycle_automorphism,
    cycle_deform, cycle_graded, cycle_half, cycle_kind, cyclotomic_context,
    enumerate_paths, forced_vanishing_suite, gauss_binom_row, multiply,
    multiply_alg, pbw_image, pbw_to_path, presentation_of, root_of_unity,
    simple_pointed_catalog, type_one_chain, type_one_cycle, verify_antipode,
    verify_degeneration, verify_graded_bialgebra, verify_relation_coproducts,
)
from hopfpath.verifier import _monomials


def _record(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status}"
    if detail and not passed:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def test_01_q_binomial_vanishing_criterion():
    # Pascal-computed Gaussian binomial is zero exactly when the
    # integer-part criterion says so, for every root order 2..12 and all
    # l + m <= 36
    failures = []
    for d in range(2, 13):
        ctx = cyclotomic_context(d)
        q = root_of_unity(ctx, d)
        for n in range(37):
            row = gauss_binom_row(n, q)
            for k in range(n + 1):
                if row[k].is_zero() != binom_vanishes(k, n - k, d):
                    failures.append((d, n, k))
    _record(1, "q-binomial vanishing criterion (orders 2..12, l+m <= 36)",
            not failures, f"first mismatch {failures[:1]}")


def test_02_graded_bialgebra_axioms():
    bad = []
    for n in range(1, 7):
        ctx = cyclotomic_context(n)
        zn = root_of_unity(ctx, n)
        for t in range(n):
            params = GradedHopfParams.cycle(n, zn ** t)
            rep = verify_graded_bialgebra(params, 5, 4)
            if not rep.passed:
                bad.append((n, t, rep.failures()[0].name))
    _record(2, "graded bialgebra axioms (n <= 6, all q, lengths 5/4)",
            not bad, str(bad[:1]))


def test_03_basis_change_isomorphisms():
    # a^l h^i -> l! p_i^l (q = 1) and p^k a^j h^i -> k! j!_q p_i^(j+dk)
    # respect products; the rewrite engine on one side, the closed path
    # product on the other
    bad = []
    for n in range(1, 7):
        cases = [cycle_graded(n, cyclotomic_context(n).one())]
        for d in range(2, n + 1):
            if n % d == 0:
                ctxd = cyclotomic_context(d)
                zd = root_of_unity(ctxd, d)
                cases.append(cycle_graded(n, zd))
                if d > 2:
                    cases.append(cycle_graded(n, zd ** (d - 1)))
        for desc in cases:
            rs = presentation_of(desc)
            params = GradedHopfParams.cycle(n, desc.q)
            monos = rs.normal_monomials(3 * n)
            images = {m: pbw_to_path(desc, m) for m in monos}
            for x in monos:
                wx = rs.monomial_weight(x)
                for y in monos:
                    if wx + rs.monomial_weight(y) > 3 * n:
                        continue
                    lhs = pbw_image(desc, multiply_alg(
                        desc, rs.monomial(x), rs.monomial(y)))
                    rhs = multiply(params, images[x], images[y])
                    if lhs != rhs:
                        bad.append((desc.label(), x, y))
            if bad:
                break
        if bad:
            break
    _record(3, "basis-change maps respect products (weight <= 3n, n <= 6)",
            not bad, str(bad[:1]))


def test_04_coalgebra_automorphisms():
    ctx = cyclotomic_context(12)
    lambdas = [0, 1, 2, -1, Fraction(1, 2)]
    bad = []

    def check(kind, F, F_inv, paths):
        for path in paths:
            x = CoalgElement.from_path(ctx, path)
            fx = F(x)
            lhs = comultiply(x).map_factors(
                lambda p: F(CoalgElement.from_path(ctx, p)),
                lambda p: F(CoalgElement.from_path(ctx, p)))
            if lhs != comultiply(fx) or counit(fx) != counit(x) \
                    or F_inv(fx) != x:
                return str(path)
        return None

    for n in range(2, 7):
        for d in range(2, n + 1):
            if n % d:
                continue
            paths = enumerate_paths(cycle_kind(n), 3 * d)
            for lam in lambdas:
                for j in range(n):
                    w = check(
                        cycle_kind(n),
                        lambda x, lam=lam, j=j: cycle_automorphism(
                            n, d, lam, j, x),
                        lambda x, lam=lam, j=j: cycle_automorphism(
                            n, d, -ctx.scalar(lam), j, x),
                        paths)
                    if w:
                        bad.append((n, d, lam, j, w))
    for d in range(1, 4):
        paths = enumerate_paths(chain_kind(), 3 * d,
                                window=(-2 * d - 1, 2 * d + 1))
        for lam in lambdas:
            w = check(chain_kind(),
                      lambda x, lam=lam: chain_automorphism(d, lam, x),
                      lambda x, lam=lam: chain_automorphism(
                          d, -ctx.scalar(lam), x),
                      paths)
            if w:
                bad.append(("chain", d, lam, w))
    _record(4, "coalgebra automorphisms (coproduct, counit, inverse)",
            not bad, str(bad[:1]))


def _family_sweep(max_n=6, params=(0, 1, 2)):
    out = []
    for n in range(1, max_n + 1):
        ctxn = cyclotomic_context(n)
        zn = root_of_unity(ctxn, n)
        for t in range(n):
            out.append(cycle_graded(n, zn ** t))
        if n >= 2:
            for lam in params:
                out.append(cycle_deform(n, zn, lam))
        if n % 2 == 0 and n >= 4:
            ctxd = cyclotomic_context(n // 2)
            for mu in params:
                out.append(cycle_half(n, root_of_unity(ctxd, n // 2), mu))
        for d in range(2, n + 1):
            if n % d == 0:
                for mu in (0, 1):
                    out.append(type_one_cycle(
                        n, root_of_unity(cyclotomic_context(d), d), mu))
    ctx1 = cyclotomic_context(1)
    out.append(chain_graded(ctx1.from_rational(2)))
    for lam in (0, 1):
        out.append(chain_q1(ctx1, lam))
    for d in range(2, max_n + 1):
        qd = root_of_unity(cyclotomic_context(d), d)
        out.append(chain_graded(qd))
        for lam in params:
            out.append(chain_root(qd, lam))
        for mu in (0, 1):
            out.append(type_one_chain(qd, mu))
    return out


def test_05_diamond_lemma_confluence():
    bad = []
    for desc in _family_sweep():
        bound = 3 * (desc.n or 4)
        rep = check_confluence(presentation_of(desc), bound)
        if not rep.passed:
            bad.append((desc.label(), rep.failures()[0].name))
    _record(5, "diamond-lemma confluence and PBW counts (all families)",
            not bad, str(bad[:1]))


def _deformed_descriptors():
    out = []
    for n in range(2, 7):
        zn = root_of_unity(cyclotomic_context(n), n)
        for lam in (0, 1, 2):
            out.append(cycle_deform(n, zn, lam))
    for n in (4, 6):
        qd = root_of_unity(cyclotomic_context(n // 2), n // 2)
        for mu in (0, 1, 2):
            out.append(cycle_half(n, qd, mu))
    ctx1 = cyclotomic_context(1)
    for lam in (0, 1):
        out.append(chain_q1(ctx1, lam))
    for d in (2, 3):
        qd = root_of_unity(cyclotomic_context(d), d)
        for lam in (0, 1, 2):
            out.append(chain_root(qd, lam))
    return out


def _hopf_bound(desc):
    return 2 * (desc.n if desc.n is not None else 2 * (desc.d or 2))


def test_06_deformed_hopf_verification():
    bad = []
    for desc in _deformed_descriptors():
        rep = verify_relation_coproducts(desc)
        rep.extend(verify_antipode(desc, _hopf_bound(desc)))
        if not rep.passed:
            bad.append((desc.label(), rep.failures()[0].name))
    _record(6, "deformed families: coproduct compatibility and two-sided "
               "antipode", not bad, str(bad[:1]))


def test_07_half_order_coefficient_resolution():
    # both readings of the mixed-commutator coefficient coincide for
    # d <= 3; they differ at d = 4 where only the factorial reading is
    # coproduct-compatible, so the shipped default must be "factorial"
    results = {}
    q6 = root_of_unity(cyclotomic_context(3), 3)
    q8 = root_of_unity(cyclotomic_context(8), 4)
    for reading in ("factorial", "integer"):
        d63 = cycle_half(6, q6, 1, coeff_reading=reading)
        results[("6/3", reading)] = (
            verify_relation_coproducts(d63).passed,
            check_confluence(presentation_of(d63), 9).passed)
        d84 = cycle_half(8, q8, 1, coeff_reading=reading)
        results[("8/4", reading)] = (
            verify_relation_coproducts(d84).passed,
            check_confluence(presentation_of(d84), 8).passed)
    for key, (delta_ok, confl_ok) in sorted(results.items()):
        print(f"  coefficient reading {key[1]} at (n,d)=({key[0]}): "
              f"coproduct={'ok' if delta_ok else 'FAIL'} "
              f"confluence={'ok' if confl_ok else 'FAIL'}")
    d42 = cycle_half(4, root_of_unity(cyclotomic_context(2), 2), 1)
    default_ok = verify_relation_coproducts(d42).passed \
        and verify_antipode(d42, 8).passed
    ok = (default_ok
          and results[("6/3", "factorial")] == (True, True)
          and results[("6/3", "integer")] == (True, True)
          and results[("8/4", "factorial")] == (True, True)
          and results[("8/4", "integer")][0] is False)
    _record(7, "half-order commutator coefficient: factorial reading "
               "verified, q-integer reading refuted at d=4", ok)


def _degeneration_descriptors():
    return _deformed_descriptors() \
        + [type_one_cycle(n, root_of_unity(cyclotomic_context(d), d), 1)
           for n in range(2, 7) for d in range(2, n + 1) if n % d == 0] \
        + [type_one_chain(root_of_unity(cyclotomic_context(d), d), 1)
           for d in (2, 3)]


def test_08_degeneration_to_graded():
    bad = []
    for desc in _degeneration_descriptors():
        rep = verify_degeneration(desc, _hopf_bound(desc))
        if not rep.passed:
            bad.append((desc.label(), rep.failures()[0].witness))
    _record(8, "leading-weight structure constants are the graded ones",
            not bad, str(bad[:1]))


def test_09_forced_vanishing_obstructions():
    ctx = cyclotomic_context(12)
    ok = True
    detail = ""
    for n, d in ((4, 2), (6, 3)):
        rep = forced_vanishing_suite(ctx, n, d, trials=(1, 2))
        if not rep.passed:
            ok = False
            detail = f"(n={n}, d={d}): {rep.failures()[0].name}"
            break
    _record(9, "forced-vanishing obstructions (four arguments, trials 1,2)",
            ok, detail)


def test_10_classification_tables():
    ctx12 = cyclotomic_context(12)
    w = root_of_unity(ctx12, 3)
    i4 = root_of_unity(ctx12, 4)
    m1 = -ctx12.one()
    one = ctx12.one()

    cycle_table = [
        (cycle_graded(3, w), cycle_graded(3, w), True),
        (cycle_graded(3, w), cycle_graded(3, w * w), False),
        (cycle_graded(3, w), cycle_graded(6, w), False),
        (cycle_graded(4, i4), cycle_graded(4, i4 ** 3), False),
        (cycle_graded(2, one), cycle_graded(2, m1), False),
        (cycle_deform(3, w, 1), cycle_deform(3, w, 2), True),
        (cycle_deform(3, w, 1), cycle_deform(3, w, Fraction(1, 2)), True),
        (cycle_deform(3, w, 1), cycle_deform(3, w, 0), False),
        (cycle_deform(3, w, 0), cycle_deform(3, w, 0), True),
        (cycle_deform(4, i4, 1), cycle_deform(4, i4 ** 3, 1), False),
        (cycle_deform(3, w, 1), cycle_graded(3, w), False),
        (cycle_half(4, m1, 1), cycle_half(4, m1, 2), True),
        (cycle_half(4, m1, 1), cycle_half(4, m1, 0), False),
        (cycle_half(4, m1, 0), cycle_graded(4, m1), False),
        (cycle_half(6, w, 1), cycle_half(6, w * w, 1), False),
    ]

    ctx1 = cyclotomic_context(1)
    two = ctx12.from_rational(2)
    chain_table = [
        (chain_graded(two), chain_graded(two), True),
        (chain_graded(two), chain_graded(ctx12.from_rational(3)), False),
        (chain_graded(w), chain_graded(w), True),
        (chain_graded(w), chain_graded(w * w), False),
        (chain_q1(ctx1, 0), chain_q1(ctx1, 0), True),
        (chain_q1(ctx1, 1), chain_q1(ctx1, 1), True),
        (chain_q1(ctx1, 0), chain_q1(ctx1, 1), False),
        (chain_q1(cyclotomic_context(1), 1), chain_q1(ctx1, 5), True),
        (chain_root(m1, 1), chain_root(m1, 1), True),
        (chain_root(m1, 1), chain_root(m1, 2), False),
        (chain_root(m1, 0), chain_root(m1, 1), False),
        (chain_root(w, 1), chain_root(w * w, 1), False),
        (chain_root(m1, 1), chain_graded(m1), False),
        (chain_root(w, Fraction(1, 2)), chain_root(w, Fraction(1, 2)), True),
    ]

    bad = [(a.label(), b.label(), want)
           for a, b, want in cycle_table + chain_table
           if classify_iso(a, b) != want or classify_iso(b, a) != want]

    # the simple-pointed catalog at max_n = 4 against the hand-built list
    ctx = cyclotomic_context(12)
    z2, z3, z4 = (root_of_unity(ctx, m) for m in (2, 3, 4))
    hand = [cycle_graded(1, ctx.one())]
    hand += [type_one_cycle(2, z2, mu) for mu in (0, 1)]
    hand += [type_one_cycle(3, z3 ** t, mu)
             for t in (1, 2) for mu in (0, 1)]
    hand += [type_one_cycle(4, z4 ** t, mu)
             for t in (1, 2, 3) for mu in (0, 1)]
    hand.append(chain_graded(ctx.from_rational(2)))
    hand.append(chain_q1(ctx, 1))
    hand += [type_one_chain(z2, mu) for mu in (0, 1)]
    hand += [type_one_chain(z3 ** t, mu) for t in (1, 2) for mu in (0, 1)]
    hand += [type_one_chain(z4 ** t, mu)
             for t in (1, 3) for mu in (0, 1)]
    catalog = simple_pointed_catalog(4, ctx)
    catalog_ok = len(catalog) == len(hand) and all(
        a.family == b.family and a.n == b.n and a.q == b.q
        and a.param == b.param for a, b in zip(catalog, hand))

    _record(10, "classification decision tables and simple-pointed catalog",
            not bad and catalog_ok,
            str(bad[:1]) if bad else "catalog mismatch")

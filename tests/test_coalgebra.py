import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from hopfpath import (
    CoalgElement, Lin, PBWMonomial, Path, Scalar, TensorElement,
    chain_automorphism, chain_kind, chain_path, comultiply, counit,
    cycle_automorphism, cycle_deform, cycle_kind, cycle_path,
    cyclotomic_context, degree, enumerate_paths, presentation_of,
    root_of_unity,
)
from hopfpath.coalgebra import _correction, splits

CTX = cyclotomic_context(12)


def elem(path, coeff=1):
    return CoalgElement.from_path(CTX, path, coeff)


def tensor(kind, *terms):
    acc = {}
    for left, right, coeff in terms:
        acc[(left, right)] = CTX.scalar(coeff)
    return TensorElement(CTX, (kind, kind), acc)


def test_element_normalization():
    p = cycle_path(3, 0, 1)
    x = elem(p) + elem(p, -1)
    assert x.is_zero()
    assert not (elem(p) + elem(p)).is_zero()
    with pytest.raises(ValueError, match="mixed quiver"):
        CoalgElement(CTX, cycle_kind(3), {chain_path(0, 1): CTX.one()})


def test_comultiply_group_like():
    k = cycle_kind(4)
    v = cycle_path(4, 0, 0)
    assert comultiply(elem(v)) == tensor(k, (v, v, 1))


def test_comultiply_arrow():
    k = cycle_kind(4)
    a0 = cycle_path(4, 0, 1)
    assert comultiply(elem(a0)) == tensor(
        k,
        (a0, cycle_path(4, 0, 0), 1),
        (cycle_path(4, 1, 0), a0, 1),
    )


def test_comultiply_length_two():
    k = cycle_kind(4)
    p = cycle_path(4, 0, 2)
    assert comultiply(elem(p)) == tensor(
        k,
        (p, cycle_path(4, 0, 0), 1),
        (cycle_path(4, 1, 1), cycle_path(4, 0, 1), 1),
        (cycle_path(4, 2, 0), p, 1),
    )


def test_counit_examples():
    g3 = cycle_path(4, 3, 0)
    assert counit(elem(g3)) == 1
    assert counit(elem(cycle_path(4, 0, 5))).is_zero()
    x = elem(cycle_path(4, 1, 0), 2) + elem(cycle_path(4, 0, 1), 3)
    assert counit(x) == 2


def test_degree_examples():
    assert degree(elem(cycle_path(4, 1, 0))) == 0
    x = elem(cycle_path(4, 0, 3)) + elem(cycle_path(4, 1, 0))
    assert degree(x) == 3
    with pytest.raises(ValueError):
        degree(CoalgElement(CTX, cycle_kind(4)))
    # lower-order corrections do not raise the degree
    image = cycle_automorphism(4, 2, 1, 0, elem(cycle_path(4, 0, 2)))
    assert degree(image) == 2


def _tensor_map(t, f):
    return t.map_factors(lambda p: f(elem(p)), lambda p: f(elem(p)))


def test_coassociativity_and_counit_axiom():
    cases = [(cycle_kind(2), None), (cycle_kind(3), None),
             (cycle_kind(5), None), (chain_kind(), (-3, 3))]
    for kind, window in cases:
        for path in enumerate_paths(kind, 10, window=window):
            x = elem(path)
            dx = comultiply(x)
            left = {}
            right = {}
            for (u, v), c in dx.terms.items():
                for (u1, u2), cu in comultiply(elem(u)).terms.items():
                    key = (u1, u2, v)
                    left[key] = left.get(key, CTX.zero()) + c * cu
                for (v1, v2), cv in comultiply(elem(v)).terms.items():
                    key = (u, v1, v2)
                    right[key] = right.get(key, CTX.zero()) + c * cv
            assert {k: v for k, v in left.items() if not v.is_zero()} \
                == {k: v for k, v in right.items() if not v.is_zero()}
            # (eps (x) id) delta = id = (id (x) eps) delta
            lhs = CoalgElement(CTX, kind)
            rhs = CoalgElement(CTX, kind)
            for (u, v), c in dx.terms.items():
                lhs = lhs + elem(v).scale(c * counit(elem(u)))
                rhs = rhs + elem(u).scale(c * counit(elem(v)))
            assert lhs == x and rhs == x


def _sweep_paths():
    """Criterion 04's paths: cycles n <= 6 up to length 3d, the chain
    window -2d-1..2d+1, and length 0."""
    for n in range(2, 7):
        for d in range(2, n + 1):
            if n % d == 0:
                yield from enumerate_paths(cycle_kind(n), 3 * d)
    for d in range(1, 4):
        yield from enumerate_paths(chain_kind(), 3 * d,
                                   window=(-2 * d - 1, 2 * d + 1))


def test_splits_match_validated_paths():
    count = 0
    for path in _sweep_paths():
        kind, i, l = path
        got = splits(path)
        want = [(Path(kind, i + t, l - t), Path(kind, i, t))
                for t in range(l + 1)]
        assert got == want, path
        for pair in got:
            for p in pair:
                assert type(p) is Path
                if kind[0] == "cycle":
                    assert 0 <= p.source < kind[1]
        count += 1
    assert count > 500


def _reference_comultiply(x):
    """Deconcatenation as written before the splits were known to be
    disjoint: every split adds into one dict from zero, and zeros are
    dropped afterwards."""
    acc = {}
    zero = x.ctx.zero()
    for path, coeff in x.terms.items():
        for key in splits(path):
            acc[key] = acc.get(key, zero) + coeff
    return Lin(x.ctx, (x.space, x.space), acc)


def _check_comultiply(x):
    dx = comultiply(x)
    assert dx.space == (x.space, x.space)
    assert dx.terms == _reference_comultiply(x).terms
    # disjoint splits: one term per split of each path, none cancelled
    assert len(dx.terms) == sum(p.length + 1 for p in x.terms)


def test_comultiply_matches_the_adding_reference_on_the_sweep():
    count = 0
    for path in _sweep_paths():
        _check_comultiply(elem(path))
        count += 1
    assert count > 500


_ELEMENT_PATHS = (enumerate_paths(cycle_kind(4), 6),
                  enumerate_paths(chain_kind(), 6, window=(-3, 3)))
_nonzero = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4)
    .filter(bool), st.integers(0, 11)).map(
    lambda cz: CTX.scalar(cz[0]) * CTX.zeta() ** cz[1])


@given(st.sampled_from(_ELEMENT_PATHS).flatmap(
    lambda paths: st.dictionaries(st.sampled_from(paths), _nonzero,
                                  min_size=1, max_size=6)))
def test_comultiply_matches_the_adding_reference_on_elements(terms):
    x = Lin(CTX, next(iter(terms)).kind, terms)
    assert 1 <= len(x.terms) <= 6
    _check_comultiply(x)


@pytest.mark.parametrize("f", [comultiply, counit, degree])
def test_structure_maps_refuse_non_path_elements(f):
    rs = presentation_of(cycle_deform(4, root_of_unity(CTX, 4), 1))
    pbw = rs.monomial(PBWMonomial(0, 1, 0))
    with pytest.raises(ValueError, match="RewriteSystem"):
        f(pbw)
    square = comultiply(elem(cycle_path(4, 0, 2)))
    with pytest.raises(ValueError, match="cycle"):
        f(square)


def test_graded_compatibility():
    for path in enumerate_paths(cycle_kind(3), 8):
        for (u, v), _ in comultiply(elem(path)).terms.items():
            assert u.length + v.length == path.length


def test_cycle_automorphism_examples():
    # identity at lambda = 0
    for path in enumerate_paths(cycle_kind(4), 6):
        assert cycle_automorphism(4, 2, 0, 0, elem(path)) == elem(path)
    p02 = cycle_path(4, 0, 2)
    image = cycle_automorphism(4, 2, 1, 0, elem(p02))
    assert image == elem(p02) + elem(cycle_path(4, 0, 0)) \
        - elem(cycle_path(4, 2, 0))
    p03 = cycle_path(4, 0, 3)
    image = cycle_automorphism(4, 2, 1, 0, elem(p03))
    assert image == elem(p03) - elem(cycle_path(4, 2, 1))
    # paths of length < d and length-d paths away from the offset are fixed
    assert cycle_automorphism(4, 2, 1, 0, elem(cycle_path(4, 1, 2))) \
        == elem(cycle_path(4, 1, 2))
    with pytest.raises(ValueError):
        cycle_automorphism(4, 1, 1, 0, elem(p02))


def test_chain_automorphism_examples():
    e0 = chain_path(0, 1)
    mu = CTX.from_rational(Fraction(2, 3))
    image = chain_automorphism(1, mu, elem(e0))
    assert image == elem(e0) + elem(chain_path(0, 0), mu) \
        - elem(chain_path(1, 0), mu)
    assert chain_automorphism(2, 1, elem(chain_path(1, 2))) \
        == elem(chain_path(1, 2))
    for path in enumerate_paths(chain_kind(), 5, window=(-2, 2)):
        assert chain_automorphism(3, 0, elem(path)) == elem(path)


NOT_INTS = [0.5, 2.0, "1", None, True]


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("field", ["n", "d", "j"])
def test_cycle_automorphism_refuses_a_non_integer_index(field, value):
    # d = 2.0 once returned 1 + -1 * g^2.0 + p[0,2], and j = 0.5 the
    # element itself
    args = {"n": 4, "d": 2, "j": 0, field: value}
    x = elem(cycle_path(4, 0, 2))
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        cycle_automorphism(args["n"], args["d"], 1, args["j"], x)


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
def test_chain_automorphism_refuses_a_non_integer_degree(value):
    with pytest.raises(ValueError, match="^d must be an int"):
        chain_automorphism(value, 1, elem(chain_path(0, 2)))


LAMBDAS = [0, 1, 2, -1, Fraction(1, 2)]


@pytest.mark.parametrize("n,d", [(n, d) for n in range(2, 7)
                                 for d in range(2, n + 1) if n % d == 0])
def test_cycle_automorphism_is_coalgebra_map(n, d):
    kind = cycle_kind(n)
    paths = enumerate_paths(kind, 3 * d)
    for lam in LAMBDAS:
        for j in range(n):
            def F(x, lam=lam, j=j):
                return cycle_automorphism(n, d, lam, j, x)
            for path in paths:
                x = elem(path)
                fx = F(x)
                assert _tensor_map(comultiply(x), F) == comultiply(fx)
                assert counit(fx) == counit(x)
                assert cycle_automorphism(n, d, -CTX.scalar(lam), j, fx) == x


@pytest.mark.parametrize("d", [1, 2, 3])
def test_chain_automorphism_is_coalgebra_map(d):
    kind = chain_kind()
    paths = enumerate_paths(kind, 3 * d, window=(-2 * d, 2 * d))
    for lam in LAMBDAS:
        def F(x, lam=lam):
            return chain_automorphism(d, lam, x)
        for path in paths:
            x = elem(path)
            fx = F(x)
            assert _tensor_map(comultiply(x), F) == comultiply(fx)
            assert counit(fx) == counit(x)
            assert chain_automorphism(d, -CTX.scalar(lam), fx) == x


def test_element_rendering():
    x = elem(cycle_path(3, 0, 2), 2) + elem(cycle_path(3, 1, 0))
    assert str(x) == "g^1 + 2 * p[0,2]"
    assert str(CoalgElement(CTX, cycle_kind(3))) == "0"


def _paths(ctx, kind, *terms):
    """The sum of c * p_i^l over (i, l, c) triples."""
    out = Lin(ctx, kind)
    for i, l, c in terms:
        out.add_term(Path(kind, i, l), ctx.scalar(c))
    return out


def _reference_cycle_correction(n, d, j, ctx, path):
    """The cycle coderivation as written before the cycle and chain
    versions were merged."""
    i, l, kind = path.source, path.length, path.kind
    if l < d or d % n == 0:
        return Lin(ctx, kind)
    if l == d:
        if (i - j) % n == 0:
            return _paths(ctx, kind, (j, 0, 1), (j + d, 0, -1))
        return Lin(ctx, kind)
    if (i - j) % n == 0:
        if (l - d) % n == 0:
            return _paths(ctx, kind, (j + d, l - d, -1), (j, l - d, 1))
        return _paths(ctx, kind, (j + d, l - d, -1))
    if (i + l - j - d) % n == 0:
        return _paths(ctx, kind, (i, l - d, 1))
    return Lin(ctx, kind)


def _reference_chain_correction(d, ctx, path):
    """The chain coderivation as written before the merge."""
    i, l, kind = path.source, path.length, path.kind
    if l < d:
        return Lin(ctx, kind)
    if l == d:
        if i == 0:
            return _paths(ctx, kind, (0, 0, 1), (d, 0, -1))
        return Lin(ctx, kind)
    if i == 0:
        return _paths(ctx, kind, (d, l - d, -1))
    if i + l == d:
        return _paths(ctx, kind, (i, l - d, 1))
    return Lin(ctx, kind)


def test_merged_correction_matches_the_cycle_and_chain_versions():
    cases = 0
    for n in range(1, 9):
        for d in range(2, 2 * n + 2):
            paths = enumerate_paths(cycle_kind(n), 3 * d)
            # offsets outside 0..n-1 too: the image sources are reduced
            # modulo n by _correction itself, not by Path
            for j in range(-n, 2 * n):
                for path in paths:
                    got = _correction(n, d, j, path)
                    want = _reference_cycle_correction(n, d, j, CTX, path)
                    assert _signed(got) == list(want.terms.items()), \
                        (n, d, j, path)
                    for image, _ in got:
                        assert 0 <= image.source < n, (n, d, j, path)
                        assert image == Path(*image), (n, d, j, path)
                    cases += 1
    for d in range(1, 9):
        for path in enumerate_paths(chain_kind(), 3 * d,
                                    window=(-2 * d, 2 * d)):
            got = _correction(None, d, 0, path)
            want = _reference_chain_correction(d, CTX, path)
            assert _signed(got) == list(want.terms.items()), (d, path)
            cases += 1
    assert cases > 90_000


def _signed(pairs):
    """The (path, sign) pairs of a correction as (path, Scalar) terms."""
    assert type(pairs) is tuple
    assert all(type(p) is Path and s in (1, -1) for p, s in pairs)
    return [(p, CTX.scalar(s)) for p, s in pairs]


def _reference_exp_correction(x, lam, step):
    """exp(lam * G) summed on elements, as written before the series ran
    on term dicts: G^k x by ``map_terms``, each order added in with
    lam^k / k! formed from a ``Fraction``."""
    out = x.copy()
    if lam.is_zero():
        return out
    term = x
    k = 0
    factor = x.ctx.one()
    while True:
        term = term.map_terms(step)
        if term.is_zero():
            return out
        k += 1
        factor = factor * lam
        out.add_scaled(term, factor * Fraction(1, math.factorial(k)))


# Scalars, then the ints and Fraction that reach the automorphisms
# uncoerced and are coerced there by ``ctx.scalar``
SERIES_LAMBDAS = [CTX.scalar(lam) for lam in (0, 1, -1, Fraction(1, 2))] \
    + [CTX.zeta(), 1, -1, Fraction(1, 2)]


def _element(kind, pairs):
    """The element sum_(p, sign) sign * p of a correction."""
    return Lin(CTX, kind, {p: CTX.scalar(s) for p, s in pairs})


def test_automorphism_series_matches_the_element_reference():
    # criterion 04's sweep; n = 2d wraps around, so G^2 != 0 there
    cases = []
    for n in range(2, 7):
        for d in range(2, n + 1):
            if n % d:
                continue
            offsets = range(n)
            if (n, d) == (6, 3):  # and offsets outside 0..n-1
                offsets = (-1, *offsets, n + 1)
            for j in offsets:
                def step(p, n=n, d=d, j=j):
                    return _element(p.kind, _correction(n, d, j, p))

                def auto(lam, x, n=n, d=d, j=j):
                    return cycle_automorphism(n, d, lam, j, x)
                cases.append((step, auto,
                              enumerate_paths(cycle_kind(n), 3 * d)))
    for d in range(1, 4):
        def step(p, d=d):
            return _element(p.kind, _correction(None, d, 0, p))

        def auto(lam, x, d=d):
            return chain_automorphism(d, lam, x)
        cases.append((step, auto, enumerate_paths(
            chain_kind(), 3 * d, window=(-2 * d - 1, 2 * d + 1))))
    second_order = 0
    for step, auto, paths in cases:
        for path in paths:
            x = elem(path)
            second_order += not x.map_terms(step).map_terms(step).is_zero()
            for lam in SERIES_LAMBDAS:
                fx = auto(lam, x)
                assert fx.terms == _reference_exp_correction(
                    x, CTX.scalar(lam), step).terms, (path, lam)
                assert auto(-lam, fx) == x, (path, lam)
    assert second_order > 0


def test_an_automorphism_that_finds_no_correction_returns_a_copy(
        monkeypatch):
    # criterion 04's sweep, where most calls find G x = 0: the result is
    # a new element equal to x, and no scalar is multiplied or added
    formed = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counting(self, other, op=getattr(Scalar, name), name=name):
            formed.append(name)
            return op(self, other)
        monkeypatch.setattr(Scalar, name, counting)
    cases = []
    for n in range(2, 7):
        for d in range(2, n + 1):
            if n % d == 0:
                cases += [(n, d, j, enumerate_paths(cycle_kind(n), 3 * d))
                          for j in range(n)]
    cases += [(None, d, 0, enumerate_paths(
        chain_kind(), 3 * d, window=(-2 * d - 1, 2 * d + 1)))
        for d in range(1, 4)]
    lambdas = [0, 1, 2, -1, Fraction(1, 2)]
    fixed = moved = 0
    for n, d, j, paths in cases:
        for path in paths:
            x = elem(path)
            if _correction(n, d, j, path):
                moved += 1
                continue
            for lam in lambdas:
                fx = cycle_automorphism(n, d, lam, j, x) if n \
                    else chain_automorphism(d, lam, x)
                assert fx == x and fx is not x, (n, d, j, path, lam)
                assert fx.terms is not x.terms, (n, d, j, path, lam)
                fx.terms.clear()
                assert x.terms == {path: CTX.one()}
                fixed += 1
    assert formed == []
    assert fixed > 10 * moved > 0

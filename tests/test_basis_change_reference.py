"""The basis change and the products it reads, against the adding code
they replaced.

``graded.multiply``, ``presentations._map_basis`` (behind ``pbw_image``
and ``path_preimage``) and ``RewriteSystem.multiply`` store a key's
first term as it is, and with ``RewriteSystem.monomial`` they build
their result from the kernel's own keys, filtered once for zeros.  The
``_reference_*`` functions below are the versions that added each term
to zero and built the result through ``Lin(ctx, space, terms)``.  Both
must give equal keys and coefficients, with no zero coefficient kept,
on the criterion 03 and criterion 08 sweeps and on elements of 1-6
terms, sums whose products cancel among them.  ``_mul_path_raw`` builds
its product path without ``Path``'s checks; it must equal the checked
path.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from hopfpath import (
    GradedHopfParams, Lin, Path, chain_graded, chain_root,
    cycle_deform, cycle_graded, cycle_kind, cyclotomic_context,
    enumerate_paths, multiply, path_preimage, pbw_image, presentation_of,
    root_of_unity,
)
from hopfpath.graded import _mul_path_raw
from hopfpath.presentations import _map_basis, _path_term, _pbw_term
from hopfpath.verifier import _CHAIN_WINDOW, _graded_sibling

from test_acceptance import _degeneration_descriptors, _hopf_bound


def _reference_multiply(params, x, y):
    """graded.multiply, adding every product to zero."""
    if x.space != params.kind or y.space != params.kind:
        raise ValueError("element does not match the multiplication parameters")
    acc = {}
    zero = params.ctx.zero()
    for pa, ca in x.terms.items():
        for pb, cb in y.terms.items():
            out = _mul_path_raw(params, pa, pb)
            if out is None:
                continue
            path, coeff = out
            acc[path] = acc.get(path, zero) + ca * cb * coeff
    return Lin(params.ctx, params.kind, acc)


def _reference_map_basis(term, rs, elt, space):
    """presentations._map_basis, adding every term to zero."""
    zero = elt.ctx.zero()
    acc = {}
    for key, c in elt.terms.items():
        image, coeff = term(rs, key)
        acc[image] = acc.get(image, zero) + c * coeff
    return Lin(elt.ctx, space, acc)


def _reference_rs_multiply(rs, x, y):
    return Lin(rs.ctx, rs, rs.accumulate({}, x.terms, y.terms))


def _reference_monomial(rs, mono, coeff=1):
    return Lin(rs.ctx, rs, {mono: rs.ctx.scalar(coeff)})


def _same(new, ref):
    """Equal space, keys and coefficients; no zero kept; path keys of
    the element's own kind."""
    assert type(new) is Lin
    assert new.space is ref.space or new.space == ref.space
    assert new.terms == ref.terms
    assert all(not c.is_zero() for c in new.terms.values())
    if type(new.space) is tuple:
        assert all(type(p) is Path and p.kind == new.space
                   for p in new.terms)


# -- the criterion sweeps ---------------------------------------------------------

def _criterion_03_descriptors():
    out = []
    for n in range(1, 7):
        out.append(cycle_graded(n, cyclotomic_context(n).one()))
        for d in range(2, n + 1):
            if n % d == 0:
                zd = root_of_unity(cyclotomic_context(d), d)
                out.append(cycle_graded(n, zd))
                if d > 2:
                    out.append(cycle_graded(n, zd ** (d - 1)))
    return out


@pytest.mark.parametrize("desc", _criterion_03_descriptors(),
                         ids=lambda d: d.label())
def test_the_homomorphism_sweep_matches_the_adding_reference(desc):
    n = desc.n
    rs = presentation_of(desc)
    params = GradedHopfParams.cycle(n, desc.q)
    monos = rs.normal_monomials(3 * n)
    elements = {}
    for m in monos:
        elements[m] = x = rs.monomial(m)
        _same(x, _reference_monomial(rs, m))
    images = {}
    for m, x in elements.items():
        images[m] = image = pbw_image(desc, x)
        _same(image, _reference_map_basis(_path_term, rs, x, cycle_kind(n)))
    pairs = 0
    for x in monos:
        wx = rs.monomial_weight(x)
        for y in monos:
            if wx + rs.monomial_weight(y) > 3 * n:
                continue
            pairs += 1
            ex, ey = elements[x], elements[y]
            product = rs.multiply(ex, ey)
            _same(product, _reference_rs_multiply(rs, ex, ey))
            lhs = pbw_image(desc, product)
            _same(lhs, _reference_map_basis(_path_term, rs, product,
                                            cycle_kind(n)))
            rhs = multiply(params, images[x], images[y])
            _same(rhs, _reference_multiply(params, images[x], images[y]))
            assert lhs == rhs
            back = path_preimage(desc, rhs)
            _same(back, _reference_map_basis(_pbw_term, rs, rhs, rs))
            assert back == product
    assert pairs > 0


@pytest.mark.parametrize("desc", _degeneration_descriptors(),
                         ids=lambda d: d.label())
def test_the_degeneration_sweep_matches_the_adding_reference(desc):
    bound = _hopf_bound(desc)
    rs = presentation_of(desc)
    gdesc = _graded_sibling(desc)
    grs = presentation_of(gdesc)
    params = GradedHopfParams(desc.path_kind, gdesc.q)
    images = {}
    for m in rs.normal_monomials(bound, _CHAIN_WINDOW):
        x = rs.monomial(m)
        _same(x, _reference_monomial(rs, m))
        images[m] = image = pbw_image(gdesc, x)
        _same(image, _reference_map_basis(_path_term, grs, x,
                                          desc.path_kind))
    for x, y in rs.monomial_pairs(bound, _CHAIN_WINDOW):
        ex, ey = rs.monomial(x), rs.monomial(y)
        _same(rs.multiply(ex, ey), _reference_rs_multiply(rs, ex, ey))
        graded = multiply(params, images[x], images[y])
        _same(graded, _reference_multiply(params, images[x], images[y]))
        _same(path_preimage(gdesc, graded),
              _reference_map_basis(_pbw_term, grs, graded, grs))


# -- elements, with sums that cancel ----------------------------------------------

CTX = cyclotomic_context(12)
Z4 = root_of_unity(CTX, 4)
Z3 = root_of_unity(CTX, 3)
PARAMS = (GradedHopfParams.cycle(4, Z4), GradedHopfParams.chain(Z3))
PATHS = {params.kind: enumerate_paths(params.kind, 4, window=(-3, 3))
         for params in PARAMS}
SYSTEMS = tuple(presentation_of(desc) for desc in (
    cycle_graded(4, Z4), cycle_deform(4, Z4, 1), chain_graded(Z3),
    chain_root(Z3, 1)))
MONOS = {rs: rs.normal_monomials(6, range(-2, 3)) for rs in SYSTEMS}

_nonzero = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4)
    .filter(bool), st.integers(0, 11)).map(
    lambda cz: CTX.scalar(cz[0]) * CTX.zeta() ** cz[1])


def _terms(keys):
    return st.dictionaries(st.sampled_from(keys), _nonzero,
                           min_size=1, max_size=6)


def _cancelling(mul, space, u, v, s):
    """(x, y, key): x = u + t v and y = v + s u, with t chosen so that
    the coefficient of key in x * y cancels, u's products against v's;
    None if no key of the product of u and of v with y allows it."""
    y = Lin(CTX, space, {v: CTX.one(), u: s})
    left = mul(Lin(CTX, space, {u: CTX.one()}), y).terms
    right = mul(Lin(CTX, space, {v: CTX.one()}), y).terms
    common = sorted(left.keys() & right.keys(), key=str)
    if not common:
        return None
    key = common[0]
    t = -left[key] * right[key].inverse()
    return Lin(CTX, space, {u: CTX.one(), v: t}), y, key


@given(st.sampled_from(PARAMS).flatmap(lambda params: st.tuples(
    st.just(params), _terms(PATHS[params.kind]),
    _terms(PATHS[params.kind]))))
def test_the_path_product_matches_the_adding_reference(case):
    params, xs, ys = case
    x, y = Lin(CTX, params.kind, xs), Lin(CTX, params.kind, ys)
    assert 1 <= len(x.terms) <= 6 and 1 <= len(y.terms) <= 6
    _same(multiply(params, x, y), _reference_multiply(params, x, y))


@given(st.sampled_from(PARAMS).flatmap(lambda params: st.tuples(
    st.just(params), st.lists(st.sampled_from(PATHS[params.kind]),
                              min_size=2, max_size=2, unique=True),
    _nonzero)))
def test_the_path_product_drops_a_sum_that_cancels(case):
    params, (u, v), s = case
    kind = params.kind
    found = _cancelling(lambda a, b: _reference_multiply(params, a, b),
                        kind, u, v, s)
    assume(found is not None)
    x, y, key = found
    product = multiply(params, x, y)
    assert key not in product.terms
    _same(product, _reference_multiply(params, x, y))


@given(st.sampled_from(SYSTEMS).flatmap(lambda rs: st.tuples(
    st.just(rs), _terms(MONOS[rs]), _terms(MONOS[rs]))))
def test_the_pbw_product_matches_the_adding_reference(case):
    rs, xs, ys = case
    x, y = Lin(CTX, rs, xs), Lin(CTX, rs, ys)
    _same(rs.multiply(x, y), _reference_rs_multiply(rs, x, y))


@given(st.sampled_from(SYSTEMS).flatmap(lambda rs: st.tuples(
    st.just(rs), st.lists(st.sampled_from(MONOS[rs]), min_size=2,
                          max_size=2, unique=True), _nonzero)))
def test_the_pbw_product_drops_a_sum_that_cancels(case):
    rs, (u, v), s = case
    found = _cancelling(lambda a, b: _reference_rs_multiply(rs, a, b),
                        rs, u, v, s)
    assume(found is not None)
    x, y, key = found
    product = rs.multiply(x, y)
    assert key not in product.terms
    _same(product, _reference_rs_multiply(rs, x, y))


@given(st.sampled_from(SYSTEMS[:1] + SYSTEMS[2:3]).flatmap(
    lambda rs: st.tuples(st.just(rs.descriptor), _terms(MONOS[rs]))))
def test_the_basis_change_matches_the_adding_reference(case):
    desc, xs = case
    # pbw_image and path_preimage read the presentation that
    # presentation_of holds now, which is not the one of SYSTEMS once a
    # test has cleared its cache: build the element over that one
    rs = presentation_of(desc)
    x = Lin(CTX, rs, {rs.interned(*m): c for m, c in xs.items()})
    image = pbw_image(desc, x)
    _same(image, _reference_map_basis(_path_term, rs, x, desc.path_kind))
    back = path_preimage(desc, image)
    _same(back, _reference_map_basis(_pbw_term, rs, image, rs))
    assert back == x


@given(st.sampled_from(PARAMS).flatmap(lambda params: _terms(
    PATHS[params.kind])))
def test_a_collapsing_basis_map_drops_a_sum_that_cancels(terms):
    # pbw_image and path_preimage are injective on the basis, so no sum
    # of theirs cancels; a map that sends every path to the vertex 1
    # does, once one more path carries minus the sum of the others
    kind = next(iter(terms)).kind
    rs = SYSTEMS[0] if kind[0] == "cycle" else SYSTEMS[2]
    one = Path(kind, 0, 0)

    def collapse(_, path):
        return one, CTX.one()

    x = Lin(CTX, kind, terms)
    total = sum(x.terms.values(), CTX.zero())
    free = next(p for p in PATHS[kind] if p not in x.terms)
    x.add_term(free, -total)
    new = _map_basis(collapse, rs, x, kind)
    assert new.terms == {}
    _same(new, _reference_map_basis(collapse, rs, x, kind))


@pytest.mark.parametrize("coeff", [1, 0, -2, Fraction(1, 3), Z4, Z4 - Z4])
def test_a_monomial_matches_the_adding_reference(coeff):
    for rs in SYSTEMS:
        for mono in MONOS[rs][:12]:
            _same(rs.monomial(mono, coeff),
                  _reference_monomial(rs, mono, coeff))


# -- the product path ---------------------------------------------------------------

@pytest.mark.parametrize("warm", PARAMS, ids=lambda p: str(p.kind))
def test_the_product_path_is_the_checked_path(warm):
    # every basis pair of the 4-cycle (sources wrap modulo 4) and of the
    # chain (negative sources included), each product formed afresh
    kind = warm.kind
    params = GradedHopfParams(kind, warm.q)
    basis = enumerate_paths(kind, 4, window=(-3, 3))
    products = 0
    for a in basis:
        for b in basis:
            out = _mul_path_raw(params, a, b)
            if out is None:
                continue
            products += 1
            path, _ = out
            checked = Path(kind, a.source + b.source, a.length + b.length)
            assert type(path) is Path and path == checked
            assert _mul_path_raw(params, a, b)[0] is path
    assert products > len(basis)
    if kind[0] == "cycle":
        a, b = Path(kind, 3, 1), Path(kind, 2, 0)
        assert _mul_path_raw(params, a, b)[0] == Path(kind, 1, 1)
    else:
        a, b = Path(kind, -3, 1), Path(kind, -2, 0)
        assert _mul_path_raw(params, a, b)[0] == Path(kind, -5, 1)

"""The basis-level bialgebra checks against the element-API loop.

``reference_verify`` is the verifier written on elements: every product
is a ``Lin`` from ``multiply``, every coproduct one from ``comultiply``
and ``tensor_multiply``.  The kernel in ``verify_graded_bialgebra`` must
agree with it check for check and witness for witness, on correct
products and on deliberately wrong ones.
"""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfpath import (
    CoalgElement, GradedHopfParams, Lin, comultiply, counit,
    Scalar, cyclotomic_context, enumerate_paths, gauss_binom_row, multiply,
    root_of_unity, tensor_multiply, unit, verify_graded_bialgebra,
)
from hopfpath import Path, graded
from hopfpath.report import VerificationReport


def reference_verify(params, max_len, assoc_len=None, window=None):
    """The bialgebra axioms checked on elements, pair by pair."""
    if assoc_len is None:
        assoc_len = max(2, max_len - 1)
    rep = VerificationReport(f"graded bialgebra on "
                             f"{graded._kind_name(params.kind)}, "
                             f"q = {params.q}")
    basis = enumerate_paths(params.kind, max_len,
                            window or (-max_len, max_len))
    one = unit(params)
    elems = {p: CoalgElement.from_path(params.ctx, p) for p in basis}
    deltas = {p: comultiply(elems[p]) for p in basis}
    counits = {p: counit(elems[p]) for p in basis}

    bad = None
    for a in basis:
        ea = elems[a]
        if multiply(params, one, ea) != ea or multiply(params, ea, one) != ea:
            bad = str(a)
            break
    rep.add("unitality", bad is None, bad or "")

    bad = None
    for a in basis:
        ea = elems[a]
        for b in basis:
            prod = multiply(params, ea, elems[b])
            if comultiply(prod) != tensor_multiply(params, deltas[a],
                                                   deltas[b]):
                bad = f"delta({a} * {b})"
                break
            if counit(prod) != counits[a] * counits[b]:
                bad = f"counit({a} * {b})"
                break
        if bad:
            break
    rep.add("comultiplication is an algebra map", bad is None, bad or "")

    tri_basis = [p for p in basis if p.length <= assoc_len]
    bad = None
    for a in tri_basis:
        ea = elems[a]
        for b in tri_basis:
            eb = elems[b]
            ab = multiply(params, ea, eb)
            for c in tri_basis:
                ec = elems[c]
                if multiply(params, ab, ec) != multiply(
                        params, ea, multiply(params, eb, ec)):
                    bad = f"({a} * {b}) * {c}"
                    break
            if bad:
                break
        if bad:
            break
    rep.add("associativity", bad is None, bad or "")
    return rep


def checks(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def cycle(n, order, power=1, cls=GradedHopfParams):
    return cls.cycle(n, root_of_unity(cyclotomic_context(order), order)
                     ** power)


def chain(q, cls=GradedHopfParams):
    return cls.chain(cyclotomic_context(1).from_rational(Fraction(q)))


# -- wrong products ---------------------------------------------------------

class UnitBinomial(GradedHopfParams):
    """Every q-binomial replaced by 1: the concatenation product."""

    def binom(self, n, k):
        return self.ctx.one()


class OneWrongBinomial(GradedHopfParams):
    """binom(4, 2)_q off by one, every other coefficient right."""

    def binom(self, n, k):
        out = super().binom(n, k)
        return out + self.ctx.one() if (n, k) == (4, 2) else out


class DoubledTwist(GradedHopfParams):
    """q^(i*m) replaced by q^(2*i*m): still associative and unital."""

    def q_power(self, e):
        return super().q_power(2 * e)


class SquaredTwist(GradedHopfParams):
    """q^(i*m) replaced by q^((i*m)^2)."""

    def q_power(self, e):
        return super().q_power(e * e)


class ShiftedTwist(GradedHopfParams):
    """q^(i*m) replaced by q^(i*m + 1): the unit no longer acts as 1."""

    def q_power(self, e):
        return super().q_power(e + 1)


class VanishingVertexProduct(GradedHopfParams):
    """binom(0, 0)_q replaced by 0: two vertices multiply to zero."""

    def binom(self, n, k):
        return self.ctx.zero() if n == 0 else super().binom(n, k)


MUTANTS = [
    (UnitBinomial, "cycle", 3),
    (UnitBinomial, "chain", 3),
    (OneWrongBinomial, "cycle", 4),
    (DoubledTwist, "cycle", 3),
    (DoubledTwist, "chain", 3),
    (SquaredTwist, "cycle", 3),
    (ShiftedTwist, "cycle", 3),
    (VanishingVertexProduct, "cycle", 2),
]


def _mutant(cls, kind):
    return cycle(3, 3, cls=cls) if kind == "cycle" else chain(2, cls=cls)


@pytest.mark.parametrize("cls, kind, max_len", MUTANTS,
                         ids=[f"{c.__name__}-{k}" for c, k, _ in MUTANTS])
def test_a_wrong_product_fails_with_the_reference_witness(cls, kind,
                                                          max_len):
    rep = verify_graded_bialgebra(_mutant(cls, kind), max_len)
    ref = reference_verify(_mutant(cls, kind), max_len)
    assert not rep.passed
    assert checks(rep) == checks(ref)
    assert rep.subject == ref.subject


def test_each_check_can_fail():
    delta, assoc = "comultiplication is an algebra map", "associativity"
    expected = {
        ("UnitBinomial", "cycle"): [(delta, "delta(p[0,1] * p[0,1])")],
        ("UnitBinomial", "chain"): [(delta, "delta(p[-3,1] * p[-3,1])")],
        ("OneWrongBinomial", "cycle"): [
            (delta, "delta(p[0,2] * p[0,2])"),
            (assoc, "(p[0,1] * p[0,1]) * p[0,2]")],
        # the twist that keeps the unit and associativity breaks delta
        ("DoubledTwist", "cycle"): [(delta, "delta(p[0,1] * p[0,1])")],
        ("DoubledTwist", "chain"): [(delta, "delta(p[-3,1] * p[-3,1])")],
        ("SquaredTwist", "cycle"): [(delta, "delta(g^1 * p[0,2])"),
                                    (assoc, "(g^1 * g^1) * p[0,1]")],
        ("ShiftedTwist", "cycle"): [("unitality", "1"),
                                    (delta, "delta(1 * 1)")],
        # delta(0) = 0 = (1 (x) 1)(1 (x) 1) here, so the counit catches it
        ("VanishingVertexProduct", "cycle"): [
            ("unitality", "1"), (delta, "counit(1 * 1)"),
            (assoc, "(1 * 1) * p[0,1]")],
    }
    for cls, kind, max_len in MUTANTS:
        rep = verify_graded_bialgebra(_mutant(cls, kind), max_len)
        assert [(c.name, c.witness) for c in rep.failures()] \
            == expected[cls.__name__, kind]


# -- the id-level kernel ------------------------------------------------------

CHAIN_QS = [cyclotomic_context(1).from_rational(Fraction(v))
            for v in (2, -1, Fraction(1, 2), Fraction(-3, 2))] \
    + [root_of_unity(cyclotomic_context(k), k) for k in (3, 4)]


@st.composite
def _fill_cases(draw):
    """Fresh params on a cycle of length n <= 6 or on the chain, its basis
    paths up to a length, and every pair of them in a random order."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        params = cycle(n, n, draw(st.integers(0, n - 1)))
    else:
        params = GradedHopfParams.chain(draw(st.sampled_from(CHAIN_QS)))
    max_len = draw(st.integers(0, 3))
    basis = enumerate_paths(params.kind, max_len, (-max_len, max_len))
    pairs = draw(st.permutations([(a, b) for a in basis for b in basis]))
    return params, basis, pairs


@given(_fill_cases())
def test_each_fill_is_the_closed_formula(case):
    # p_i^l * p_j^m = q^(i*m) * binom(l+m, l)_q * p_{i+j}^{l+m}, the
    # coefficient formed here from `q ** (i*m)` and a q-Pascal row built
    # from row 0, whatever order the pairs are filled in
    params, basis, pairs = case
    ids = {p: params._path_id(p) for p in basis}
    pascal = {}
    for a, b in pairs:
        i, j = ids[a], ids[b]
        out = graded._fill(params, i, j)
        assert params._rows[i][j] == out
        l, m = a.length, b.length
        row = pascal.get(l + m)
        if row is None:
            row = pascal[l + m] = gauss_binom_row(l + m, params.q)
        c = params.q ** (a.source * m) * row[l]
        if c.is_zero():
            assert out is None, (a, b)
        else:
            assert out is not None, (a, b)
            assert params._paths[out[0]] \
                == Path(a.kind, a.source + b.source, l + m), (a, b)
            assert params._coeffs[out[1]] == c, (a, b)
    assert all(len(params._rows[i]) == len(basis) for i in ids.values())


@pytest.mark.parametrize("make, max_len", [
    (lambda: cycle(6, 6), 4),
    (lambda: cycle(4, 4, 3), 3),
    (lambda: chain(2), 3),
], ids=["cycle6", "cycle4", "chain"])
def test_each_product_coefficient_is_formed_once_per_shape(make, max_len):
    # the coefficient of p_i^l * p_j^m depends only on the shape
    # (i*m, l, m), not on j: it is formed once per shape, from the
    # exponent i*m as it is, not reduced modulo n
    params = make()
    q_power, binom = params.q_power, params.binom
    formed = []

    def recording_q_power(e):
        formed.append(e)
        return q_power(e)

    def recording_binom(n, k):
        formed.append((n, k))
        return binom(n, k)

    params.q_power, params.binom = recording_q_power, recording_binom
    basis = enumerate_paths(params.kind, max_len, (-max_len, max_len))
    for a in basis:
        for b in basis:
            graded._mul_path_raw(params, a, b)
    shapes = {(a.source * b.length, a.length, b.length)
              for a in basis for b in basis}
    assert len(shapes) < len(basis) ** 2
    assert sorted(zip(formed[::2], formed[1::2])) \
        == sorted((e, (l + m, l)) for e, l, m in shapes)
    assert len(params._shapes) == len(shapes)
    formed[:] = []
    for a in basis:
        for b in basis:
            graded._mul_path_raw(params, a, b)
    assert formed == []


# -- the same work as the element loop ----------------------------------------

def _recording(monkeypatch):
    """Record each ``_fill`` call, each basis-path product formed, as
    (caller, a, b): the caller is "multiply" when the call came through
    ``multiply``'s ``_mul_path_raw``, else the function that called
    ``_fill``."""
    calls = []
    fill = graded._fill

    def recording(params, i, j):
        caller = sys._getframe(1).f_code.co_name
        if caller == "_mul_path_raw":
            caller = sys._getframe(2).f_code.co_name
        calls.append((caller, params._paths[i], params._paths[j]))
        return fill(params, i, j)

    monkeypatch.setattr(graded, "_fill", recording)
    return calls


def _first_appearances(pairs):
    return list(dict.fromkeys(pairs))


@pytest.mark.parametrize("make, max_len", [
    (lambda: cycle(4, 4), 3),
    (lambda: chain(2), 3),
], ids=["cycle", "chain"])
def test_kernel_forms_the_reference_products_once_in_the_same_order(
        monkeypatch, make, max_len):
    # every distinct basis-path product the element loop asks for is
    # formed, in the order of its first appearance there; the pair and
    # triple checks form none twice (unitality asks on elements, through
    # `multiply`, as the element loop does), and no product is formed
    # twice at all
    calls = _recording(monkeypatch)
    ref = reference_verify(make(), max_len)
    expected = _first_appearances((a, b) for _, a, b in calls)
    calls[:] = []
    rep = verify_graded_bialgebra(make(), max_len)
    assert rep.passed and checks(rep) == checks(ref)
    assert _first_appearances((a, b) for _, a, b in calls) == expected
    assert len(calls) == len(expected)
    formed = [(a, b) for caller, a, b in calls if caller != "multiply"]
    assert formed and len(formed) == len(set(formed))
    assert not set(formed) & {(a, b) for caller, a, b in calls
                              if caller == "multiply"}


def test_a_second_verdict_forms_no_product_in_the_pair_or_triple_checks(
        monkeypatch):
    calls = _recording(monkeypatch)
    for make, lengths in ((lambda: cycle(6, 6), (5, 4)),
                          (lambda: chain(2), (3, 2))):
        params = make()
        assert verify_graded_bialgebra(params, *lengths).passed
        assert {caller for caller, _, _ in calls} > {"multiply"}
        calls[:] = []
        # every product is in the rows now: neither the pair and triple
        # checks nor unitality's `multiply` forms one
        assert verify_graded_bialgebra(params, *lengths).passed
        assert calls == []


def _wrong_products(params, a, b):
    """Wrong values of the product a * b: its coefficient off by one, its
    path one longer, and zero if it is not zero."""
    one = params.ctx.one()
    out = graded._mul_path_raw(params, a, b)
    path, c = out or (Path(a.kind, a.source + b.source, a.length + b.length),
                      params.ctx.zero())
    wrong = [None if (c + one).is_zero() else (path, c + one),
             (path._replace(length=path.length + 1), c if out else one)]
    if out is not None:
        wrong.append(None)
    return wrong


def _with_product(params, a, b, value):
    """params with the product a * b set to value, a (path, coefficient)
    pair or None; every other product is formed as before."""
    params._rows[params._path_id(a)][params._path_id(b)] = None \
        if value is None else (params._path_id(value[0]),
                               params._coeff_id(value[1]))
    return params


@pytest.mark.parametrize("make, lengths, every", [
    (lambda: cycle(3, 3), (2, 2), True),
    (lambda: chain(2), (2, 0), False),
], ids=["cycle", "chain"])
def test_each_single_wrong_product_fails_with_the_reference_witness(
        make, lengths, every):
    # the product of exactly one basis pair is off, every other product
    # is right: the kernel reports what the element loop reports.  On
    # the chain each pair gets one of its wrong values in turn, which
    # keeps the sweep short.
    basis = enumerate_paths(make().kind, lengths[0],
                            (-lengths[0], lengths[0]))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            values = _wrong_products(make(), a, b)
            if not every:
                values = [values[(i + j) % len(values)]]
            for value in values:
                rep = verify_graded_bialgebra(
                    _with_product(make(), a, b, value), *lengths)
                ref = reference_verify(
                    _with_product(make(), a, b, value), *lengths)
                assert not rep.passed and checks(rep) == checks(ref), \
                    (a, b, value)


def test_kernel_builds_elements_only_for_unitality(monkeypatch):
    built = []
    init = Lin.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Lin, "__init__", counting)
    params = cycle(6, 6)
    assert verify_graded_bialgebra(params, 5, 4).passed
    # the unit, then x and the products 1 * x and x * 1 for each path
    assert len(built) == 1 + 3 * len(enumerate_paths(params.kind, 5))


def test_pair_check_splits_each_path_once(monkeypatch):
    # the basis paths and every product path are split once per verdict,
    # not once per pair that meets them
    split = []
    splits = graded.splits

    def counting(path):
        split.append(path)
        return splits(path)

    monkeypatch.setattr(graded, "splits", counting)
    assert verify_graded_bialgebra(cycle(6, 6), 5, 4).passed
    assert split and len(split) == len(set(split))


@pytest.mark.parametrize("make, lengths", [
    (lambda: cycle(6, 6), (5, 4)),
    (lambda: chain(2), (3, 2)),
], ids=["cycle", "chain"])
def test_each_coefficient_product_and_sum_is_formed_once_per_params(
        monkeypatch, make, lengths):
    # the pair and triple checks read products and sums of structure
    # coefficients from tables on the params: a pair of values is
    # multiplied or added once, however many pairs and triples meet it,
    # on the chain with q of infinite order too.  Unitality runs on the
    # element API, `multiply`, which is not tabled.
    formed = {"*": [], "+": []}

    def recording(op, method):
        def wrapped(x, y):
            code = sys._getframe(1).f_code
            if code.co_filename == graded.__file__ \
                    and code.co_name != "multiply":
                formed[op].append((x, y))
            return method(x, y)
        return wrapped

    monkeypatch.setattr(Scalar, "__mul__", recording("*", Scalar.__mul__))
    monkeypatch.setattr(Scalar, "__add__", recording("+", Scalar.__add__))
    params = make()
    assert verify_graded_bialgebra(params, *lengths).passed
    for op, pairs in formed.items():
        assert pairs, op
        assert len(pairs) == len(set(pairs)), op
    # a second verdict on the same params forms nothing new
    formed["*"][:], formed["+"][:] = [], []
    assert verify_graded_bialgebra(params, *lengths).passed
    assert formed == {"*": [], "+": []}


def test_verdicts_agree_on_the_criterion_sweep_at_small_lengths():
    for n in range(1, 7):
        zn = root_of_unity(cyclotomic_context(n), n)
        for t in range(n):
            rep = verify_graded_bialgebra(GradedHopfParams.cycle(n, zn ** t),
                                          3, 2)
            ref = reference_verify(GradedHopfParams.cycle(n, zn ** t), 3, 2)
            assert checks(rep) == checks(ref)
            assert rep.passed


@pytest.mark.parametrize("q", [2, -1, Fraction(1, 2)], ids=str)
def test_verdicts_agree_on_chains_at_small_lengths(q):
    for lengths in ((2, 2), (3, 2)):
        rep = verify_graded_bialgebra(chain(q), *lengths)
        assert checks(rep) == checks(reference_verify(chain(q), *lengths))
        assert rep.passed


def test_assoc_len_must_lie_between_zero_and_max_len():
    params = cycle(3, 3)
    for assoc_len in (-1, 4):
        with pytest.raises(ValueError, match="between 0 and max_len"):
            verify_graded_bialgebra(params, 3, assoc_len)
    assert verify_graded_bialgebra(params, 3, 0).passed
    assert verify_graded_bialgebra(params, 3, 3).passed


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None, Fraction(2)],
                         ids=repr)
def test_lengths_must_be_ints(value):
    # assoc_len 2.5 once checked associativity up to length 2 and passed,
    # True was read as 1 and "2" died with a TypeError from ``<=``
    params = cycle(4, 4)
    if value is not None:  # None is the default assoc_len
        with pytest.raises(ValueError, match=re.escape(
                f"assoc_len must be an int, not {value!r}")):
            verify_graded_bialgebra(params, 4, value)
    with pytest.raises(ValueError, match=re.escape(
            f"max_len must be an int, not {value!r}")):
        verify_graded_bialgebra(params, value)


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None, Fraction(2)],
                         ids=repr)
def test_structure_table_length_must_be_an_int(value):
    # "2" died with a TypeError inside the work bound, and True was read
    # as 1
    with pytest.raises(ValueError, match="^" + re.escape(
            f"max_len must be an int, not {value!r}")):
        graded.structure_table(cycle(4, 4), value)


def test_length_checks_come_before_the_work_bound():
    # a length that is not an int is named, not sized against the bound
    with pytest.raises(ValueError, match="^max_len must be an int"):
        verify_graded_bialgebra(cycle(6, 6), 10.0)
    with pytest.raises(ValueError, match="^assoc_len must be an int"):
        verify_graded_bialgebra(cycle(6, 6), 10, 9.0)


def test_work_above_the_bound_is_refused_before_it_starts():
    assert graded.MAX_BASIS_TUPLES == 200_000
    # 60 paths up to length 9 on the 6-cycle: 216,000 triples
    with pytest.raises(ValueError, match="^216,000 triples exceed"):
        verify_graded_bialgebra(cycle(6, 6), 10)
    # 496 splits of the paths up to length 30 on the loop: 246,016 pairs
    loop = GradedHopfParams.cycle(1, cyclotomic_context(1).one())
    with pytest.raises(ValueError, match="^246,016 split pairs exceed"):
        verify_graded_bialgebra(loop, 30, 0)
    # 16 lengths of 31 chain sources: 246,016 rows
    with pytest.raises(ValueError, match="^246,016 basis pairs exceed"):
        graded.structure_table(chain(2), 15)

"""Graded multiplication on the path coalgebra of a cycle or chain.

For a cycle of length n the choices of graded product correspond to the
n-th roots of unity q, for the chain to the nonzero field elements.
The product of basis paths is the single closed formula

    p_i^l * p_j^m = q^(i*m) * binom(l+m, l)_q * p_{i+j}^{l+m},

with the index sum taken modulo n on the cycle and in Z on the chain.
Rather than constructing the bimodule machinery behind the formula, the
bialgebra axioms are checked exhaustively on bounded path sets; the
verifier doubles as the oracle for every product identity used later.

The checks run on basis paths, which are tuples: a product is one
(path, coefficient) pair from the memo of ``_mul_path_raw`` or zero, and
each path the coproduct check meets is split once per verdict.  A
verdict meets only a few distinct structure coefficients, so the params
keep one canonical ``Scalar`` per coefficient value, and the pair and
triple checks read every product (and every sum) of two of them from a
table on the params: each is formed once per params, and the results
compare by identity before equality is tried.
"""

from __future__ import annotations

from .coalgebra import splits
from .linear import Lin
from .quiver import Path, chain_kind, cycle_kind, enumerate_paths
from .report import VerificationReport
from .scalars import gauss_binom_row, order, q_factorial

__all__ = [
    "MAX_BASIS_TUPLES",
    "GradedHopfParams",
    "multiply",
    "unit",
    "power_formula_check",
    "verify_graded_bialgebra",
    "tensor_multiply",
    "structure_table",
]

# The most basis pairs, split pairs (the comultiplication check's
# products) or triples one verdict or table may range over.  The
# acceptance sweep needs at most 27,000 (triples on the 6-cycle,
# lengths 5/4).
MAX_BASIS_TUPLES = 200_000


class GradedHopfParams:
    """Quiver kind plus the structure scalar q.

    Cycle: q^n must be 1.  Chain: q must be nonzero.
    """

    def __init__(self, kind, q):
        self.kind = kind
        self.q = q
        self.ctx = q.ctx
        if kind[0] == "cycle":
            if q ** kind[1] != self.ctx.one():
                raise ValueError("cycle of length n needs q with q^n = 1")
        elif kind[0] == "chain":
            if q.is_zero():
                raise ValueError("chain multiplication needs a nonzero q")
        else:
            raise ValueError(f"unknown quiver kind {kind!r}")
        self._qpow = {}
        self._binom_rows = {}
        self._pair_cache = {}
        # one copy of each path the products meet, so that the keys of
        # _pair_cache match by identity before equality is tried
        self._paths = {}
        # one Scalar per structure-coefficient value (zero seeded, so a
        # sum that cancels is ctx.zero()), and the products and sums of
        # those Scalars, each formed once per params
        zero = self.ctx.zero()
        self._coeffs = {zero: zero}
        self._products = {}
        self._sums = {}

    @classmethod
    def cycle(cls, n, q):
        return cls(cycle_kind(n), q)

    @classmethod
    def chain(cls, q):
        return cls(chain_kind(), q)

    def q_power(self, e):
        out = self._qpow.get(e)
        if out is None:
            out = self._qpow[e] = self.q ** e
        return out

    def binom(self, n, k):
        row = self._binom_rows.get(n)
        if row is None:
            row = self._binom_rows[n] = gauss_binom_row(n, self.q)
        return row[k]

    def _canonical(self, c):
        """The one Scalar of c's value that this params keeps."""
        return self._coeffs.setdefault(c, c)

    def _product(self, x, y):
        """The canonical x * y, formed once per pair of values."""
        out = self._products.get((x, y))
        if out is None:
            out = self._products[x, y] = self._canonical(x * y)
        return out

    def _sum(self, x, y):
        """The canonical x + y, formed once per pair of values."""
        out = self._sums.get((x, y))
        if out is None:
            out = self._sums[x, y] = self._canonical(x + y)
        return out

    def __repr__(self):
        return f"GradedHopfParams({self.kind}, q={self.q})"


def _mul_path_raw(params, a, b):
    """Product of two basis paths: (path, coefficient) or None if zero."""
    key = (a, b)
    hit = params._pair_cache.get(key, False)
    if hit is not False:
        return hit
    coeff = params._product(params.q_power(a.source * b.length),
                            params.binom(a.length + b.length, a.length))
    if coeff.is_zero():
        out = None
    else:
        path = Path(a.kind, a.source + b.source, a.length + b.length)
        out = params._paths.setdefault(path, path), coeff
    params._pair_cache[key] = out
    return out


def multiply(params, x, y):
    """Bilinear extension of the path product."""
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


def unit(params):
    """The vertex at index 0 is the multiplicative unit."""
    return Lin.from_path(params.ctx, Path(params.kind, 0, 0))


def tensor_multiply(params, tx, ty):
    """Component-wise product on the tensor square.

    The coalgebra is pointed with group-likes acting diagonally, so the
    tensor-square product used by the bialgebra axiom is the plain
    component-wise one; the exhaustive axiom check below is the arbiter
    for that reading.
    """
    acc = {}
    zero = params.ctx.zero()
    for (al, ar), ca in tx.terms.items():
        for (bl, br), cb in ty.terms.items():
            left = _mul_path_raw(params, al, bl)
            if left is None:
                continue
            right = _mul_path_raw(params, ar, br)
            if right is None:
                continue
            lp, lc = left
            rp, rc = right
            key = (lp, rp)
            acc[key] = acc.get(key, zero) + (ca * cb) * (lc * rc)
    return Lin(params.ctx, (params.kind, params.kind), acc)


def power_formula_check(params, l, j):
    """Divided-power laws for p = p_0^d at a root of unity q of order d.

    Checks p^l = l! * p_0^(d*l) and p_0^(d*l) * a_0^j = j!_q * p_0^(j+d*l)
    under the closed product.  The l-th power carries the ordinary
    factorial l!: the coefficient binom(2d, d)_q * binom(3d, d)_q * ...
    collapses to l! at a root of unity of order d.
    """
    d = order(params.q)
    if d is None:
        raise ValueError("q has infinite order; no finite divided-power degree")
    if d < 2:
        raise ValueError("divided-power laws need a nontrivial root of unity")
    ctx = params.ctx
    p = Lin.from_path(ctx, Path(params.kind, 0, d))
    power = unit(params)
    for _ in range(l):
        power = multiply(params, power, p)
    factorial = 1
    for t in range(2, l + 1):
        factorial *= t
    expected = Lin.from_path(ctx, Path(params.kind, 0, d * l), factorial)
    if power != expected:
        return False
    a = Lin.from_path(ctx, Path(params.kind, 0, 1))
    lhs = Lin.from_path(ctx, Path(params.kind, 0, d * l))
    for _ in range(j):
        lhs = multiply(params, lhs, a)
    rhs = Lin.from_path(ctx, Path(params.kind, 0, j + d * l),
                        q_factorial(j, params.q))
    return lhs == rhs


def verify_graded_bialgebra(params, max_len, assoc_len=None):
    """Exhaustive bialgebra axioms on paths of bounded length.

    Checks associativity (on triples up to assoc_len, default
    max_len - 1, at most max_len), unitality, multiplicativity of the
    comultiplication in the tensor-square algebra, and multiplicativity
    of the counit.  Unitality runs on the element API; the pairs and
    triples are checked on basis paths, where a product is one
    (path, coefficient) pair or zero.  Failures are recorded with the
    offending paths, not raised.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if assoc_len is None:
        assoc_len = max(2, max_len - 1)
    if not 0 <= assoc_len <= max_len:
        raise ValueError("assoc_len must be between 0 and max_len")
    _check_work(params.kind, max_len, assoc_len)
    rep = VerificationReport(f"graded bialgebra on {_kind_name(params.kind)}, "
                             f"q = {params.q}")
    canon = params._paths
    basis = [canon.setdefault(p, p)
             for p in enumerate_paths(params.kind, max_len,
                                      (-max_len, max_len))]
    one = unit(params)
    bad = None
    for a in basis:
        ea = Lin.from_path(params.ctx, a)
        if multiply(params, one, ea) != ea or multiply(params, ea, one) != ea:
            bad = str(a)
            break
    rep.add("unitality", bad is None, bad or "")
    bad = _bialgebra_pair_failure(params, basis)
    rep.add("comultiplication is an algebra map", bad is None, bad or "")
    bad = _associativity_failure(
        params, [p for p in basis if p.length <= assoc_len])
    rep.add("associativity", bad is None, bad or "")
    return rep


def _bialgebra_pair_failure(params, basis):
    """The first pair (a, b) with delta(a*b) != delta(a) delta(b) or
    epsilon(a*b) != epsilon(a) epsilon(b), as a witness, or None.

    delta(a) delta(b) is summed over the split pairs of a and b in the
    component-wise tensor-square product; delta(a*b) is the splits of
    the one product path.  Every path met, basis or product, is split
    once per verdict, into canonical paths.  The products and running
    sums of coefficients are read from the params' tables, so every
    coefficient is canonical and a sum that cancels is the canonical
    zero.  Both sides keep only nonzero coefficients.
    """
    # every value in acc comes from _product or _sum, so it is canonical,
    # and the one canonical zero is the table's
    zero, one = params._canonical(params.ctx.zero()), params.ctx.one()
    canon = params._paths
    cuts = {}

    def cut(p):
        out = cuts.get(p)
        if out is None:
            out = cuts[p] = [(canon.setdefault(l, l), canon.setdefault(r, r))
                             for l, r in splits(p)]
        return out

    basis_cuts = [(p, cut(p)) for p in basis]
    for a, cut_a in basis_cuts:
        for b, cut_b in basis_cuts:
            out = _mul_path_raw(params, a, b)
            acc = {}
            for al, ar in cut_a:
                for bl, br in cut_b:
                    left = _mul_path_raw(params, al, bl)
                    if left is None:
                        continue
                    right = _mul_path_raw(params, ar, br)
                    if right is None:
                        continue
                    key = (left[0], right[0])
                    c = params._product(left[1], right[1])
                    old = acc.get(key)
                    acc[key] = c if old is None else params._sum(old, c)
            lhs = {} if out is None else dict.fromkeys(cut(out[0]), out[1])
            if {k: c for k, c in acc.items() if c is not zero} != lhs:
                return f"delta({a} * {b})"
            eps = out[1] if out is not None and out[0].length == 0 else zero
            if eps != (one if a.length == 0 == b.length else zero):
                return f"counit({a} * {b})"
    return None


def _associativity_failure(params, basis):
    """The first triple with (a*b)*c != a*(b*c), as a witness, or None.

    Each side is one (path, coefficient) pair or None; the product of
    the two coefficients is read from the params' table, so each
    distinct product is formed once per params, not once per triple.
    """
    for a in basis:
        for b in basis:
            ab = _mul_path_raw(params, a, b)
            for c in basis:
                lhs = rhs = None
                if ab is not None:
                    out = _mul_path_raw(params, ab[0], c)
                    if out is not None:
                        lhs = out[0], params._product(ab[1], out[1])
                bc = _mul_path_raw(params, b, c)
                if bc is not None:
                    out = _mul_path_raw(params, a, bc[0])
                    if out is not None:
                        rhs = out[0], params._product(out[1], bc[1])
                if lhs != rhs:
                    return f"({a} * {b}) * {c}"
    return None


def _check_work(kind, max_len, assoc_len=None):
    """Refuse, before any work, a check or table over more than
    MAX_BASIS_TUPLES basis pairs, split pairs or triples."""
    width = kind[1] if kind[0] == "cycle" else max(0, 2 * max_len + 1)
    lengths = max(0, max_len + 1)
    sizes = {"basis pairs": (width * lengths) ** 2}
    if assoc_len is not None:
        sizes["split pairs"] = (width * lengths * (lengths + 1) // 2) ** 2
        sizes["triples"] = (width * (assoc_len + 1)) ** 3
    for what, size in sizes.items():
        if size > MAX_BASIS_TUPLES:
            raise ValueError(f"{size:,} {what} exceed the maximum of "
                             f"{MAX_BASIS_TUPLES:,}; lower the length bound")


def structure_table(params, max_len):
    """Structure constants of the graded product on bounded paths."""
    _check_work(params.kind, max_len)
    basis = enumerate_paths(params.kind, max_len, (-max_len, max_len))
    rows = []
    for a in basis:
        for b in basis:
            out = _mul_path_raw(params, a, b)
            rows.append({
                "left": str(a),
                "right": str(b),
                "coeff": "0" if out is None else str(out[1]),
                "result": "" if out is None else str(out[0]),
            })
    return rows


def _kind_name(kind):
    return f"cycle({kind[1]})" if kind[0] == "cycle" else "chain"

"""Graded multiplication on the path coalgebra of a cycle or chain.

For a cycle of length n the choices of graded product correspond to the
n-th roots of unity q, for the chain to the nonzero field elements.
The product of basis paths is the single closed formula

    p_i^l * p_j^m = q^(i*m) * binom(l+m, l)_q * p_{i+j}^{l+m},

with the index sum taken modulo n on the cycle and in Z on the chain.
Rather than constructing the bimodule machinery behind the formula, the
bialgebra axioms are checked exhaustively on bounded path sets; the
verifier doubles as the oracle for every product identity used later.
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

    def __repr__(self):
        return f"GradedHopfParams({self.kind}, q={self.q})"


def _mul_path_raw(params, a, b):
    """Product of two basis paths: (path, coefficient) or None if zero."""
    key = (a, b)
    hit = params._pair_cache.get(key, False)
    if hit is not False:
        return hit
    coeff = params.q_power(a.source * b.length) \
        * params.binom(a.length + b.length, a.length)
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


def verify_graded_bialgebra(params, max_len, assoc_len=None, window=None):
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
    window = window or (-max_len, max_len)
    _check_work(params.kind, max_len, window, assoc_len)
    rep = VerificationReport(f"graded bialgebra on {_kind_name(params.kind)}, "
                             f"q = {params.q}")
    canon = params._paths
    basis = [canon.setdefault(p, p)
             for p in enumerate_paths(params.kind, max_len, window)]
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
    the one product path.  Both sides keep only nonzero coefficients.
    """
    zero, one = params.ctx.zero(), params.ctx.one()
    canon = params._paths
    cut = {p: [(canon.setdefault(l, l), canon.setdefault(r, r))
               for l, r in splits(p)] for p in basis}
    for a in basis:
        for b in basis:
            out = _mul_path_raw(params, a, b)
            acc = {}
            for al, ar in cut[a]:
                for bl, br in cut[b]:
                    left = _mul_path_raw(params, al, bl)
                    if left is None:
                        continue
                    right = _mul_path_raw(params, ar, br)
                    if right is None:
                        continue
                    key = (left[0], right[0])
                    c = left[1] * right[1]
                    old = acc.get(key)
                    acc[key] = c if old is None else old + c
            lhs = {} if out is None else dict.fromkeys(splits(out[0]), out[1])
            if {k: c for k, c in acc.items() if not c.is_zero()} != lhs:
                return f"delta({a} * {b})"
            eps = out[1] if out is not None and out[0].length == 0 else zero
            if eps != (one if a.length == 0 == b.length else zero):
                return f"counit({a} * {b})"
    return None


def _associativity_failure(params, basis):
    """The first triple with (a*b)*c != a*(b*c), as a witness, or None."""
    for a in basis:
        for b in basis:
            ab = _mul_path_raw(params, a, b)
            for c in basis:
                lhs = rhs = None
                if ab is not None:
                    out = _mul_path_raw(params, ab[0], c)
                    if out is not None:
                        lhs = out[0], ab[1] * out[1]
                bc = _mul_path_raw(params, b, c)
                if bc is not None:
                    out = _mul_path_raw(params, a, bc[0])
                    if out is not None:
                        rhs = out[0], out[1] * bc[1]
                if lhs != rhs:
                    return f"({a} * {b}) * {c}"
    return None


def _check_work(kind, max_len, window, assoc_len=None):
    """Refuse, before any work, a check or table over more than
    MAX_BASIS_TUPLES basis pairs, split pairs or triples."""
    width = kind[1] if kind[0] == "cycle" else max(0, window[1] - window[0] + 1)
    lengths = max(0, max_len + 1)
    sizes = {"basis pairs": (width * lengths) ** 2}
    if assoc_len is not None:
        sizes["split pairs"] = (width * lengths * (lengths + 1) // 2) ** 2
        sizes["triples"] = (width * (assoc_len + 1)) ** 3
    for what, size in sizes.items():
        if size > MAX_BASIS_TUPLES:
            raise ValueError(f"{size:,} {what} exceed the maximum of "
                             f"{MAX_BASIS_TUPLES:,}; lower the length bound")


def structure_table(params, max_len, window=None):
    """Structure constants of the graded product on bounded paths."""
    window = window or (-max_len, max_len)
    _check_work(params.kind, max_len, window)
    basis = enumerate_paths(params.kind, max_len, window)
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

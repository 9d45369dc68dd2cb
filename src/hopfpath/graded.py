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

from .coalgebra import comultiply, counit
from .linear import Lin
from .quiver import Path, chain_kind, cycle_kind, enumerate_paths
from .report import VerificationReport
from .scalars import gauss_binom_row, order, q_factorial

__all__ = [
    "GradedHopfParams",
    "multiply_paths",
    "multiply",
    "unit",
    "power_formula_check",
    "verify_graded_bialgebra",
    "tensor_multiply",
    "structure_table",
]


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
        out = Path(a.kind, a.source + b.source, a.length + b.length), coeff
    params._pair_cache[key] = out
    return out


def multiply_paths(params, a, b):
    """The closed product formula on basis paths, as an element."""
    for p in (a, b):
        if p.kind != params.kind:
            raise ValueError("path does not match the multiplication parameters")
    out = _mul_path_raw(params, a, b)
    return Lin(params.ctx, params.kind,
               None if out is None else {out[0]: out[1]})


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
    max_len - 1), unitality, multiplicativity of the comultiplication in
    the tensor-square algebra, and multiplicativity of the counit.
    Failures are recorded with the offending paths, not raised.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if assoc_len is None:
        assoc_len = max(2, max_len - 1)
    rep = VerificationReport(f"graded bialgebra on {_kind_name(params.kind)}, "
                             f"q = {params.q}")
    basis = enumerate_paths(params.kind, max_len,
                            window or (-max_len, max_len))
    one = unit(params)
    elems = {p: Lin.from_path(params.ctx, p) for p in basis}
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


def structure_table(params, max_len, window=None):
    """Structure constants of the graded product on bounded paths."""
    basis = enumerate_paths(params.kind, max_len,
                            window or (-max_len, max_len))
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

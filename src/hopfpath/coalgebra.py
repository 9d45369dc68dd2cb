"""The path coalgebra of a cycle or chain quiver.

Elements are finite linear combinations of paths with coefficients in a
cyclotomic field.  The comultiplication splits a path at every vertex,

    delta(p_i^l) = sum_{t=0..l} p_{i+t}^{l-t} (x) p_i^t,

the counit is supported on vertices, and path length gives the
coradical grading.  The module also provides the degree-d automorphism
families that fix all shorter paths and add a group-like correction to
a single length-d path; these are the base changes used to normalize
deformed multiplications.
"""

from __future__ import annotations

from fractions import Fraction

from .linear import Lin
from .quiver import Path

__all__ = [
    "CoalgElement",
    "TensorElement",
    "splits",
    "comultiply",
    "counit",
    "degree",
    "cycle_automorphism",
    "chain_automorphism",
]


CoalgElement = TensorElement = Lin  # paths, and pairs of paths: one type


# -- structure maps ----------------------------------------------------------

def splits(path):
    """The pairs (p_{i+t}^{l-t}, p_i^t), t = 0..l, of p_i^l."""
    kind, i, l = path.kind, path.source, path.length
    return [(Path(kind, i + t, l - t), Path(kind, i, t)) for t in range(l + 1)]


def comultiply(x):
    """Deconcatenation: delta(p_i^l) = sum_t p_{i+t}^{l-t} (x) p_i^t."""
    acc = {}
    zero = x.ctx.zero()
    for path, coeff in x.terms.items():
        for key in splits(path):
            acc[key] = acc.get(key, zero) + coeff
    return Lin(x.ctx, (x.space, x.space), acc)


def counit(x):
    """Sum of the coefficients of length-0 paths."""
    total = x.ctx.zero()
    for path, coeff in x.terms.items():
        if path.length == 0:
            total = total + coeff
    return total


def degree(x):
    """Maximal path length occurring in a nonzero element."""
    if x.is_zero():
        raise ValueError("degree of the zero element is undefined")
    return max(path.length for path in x.terms)


# -- coalgebra automorphisms ---------------------------------------------------

def _paths(ctx, kind, *terms):
    """The sum of c * p_i^l over (i, l, c) triples."""
    out = Lin(ctx, kind)
    for i, l, c in terms:
        out.add_term(Path(kind, i, l), ctx.scalar(c))
    return out


def _correction(n, d, j, ctx, path):
    """One application of the degree-lowering coderivation behind the
    automorphism at offset j (unit deformation scalar).

    Sends p_j^d to g^j - g^{j+d}; on longer paths the piecewise terms
    are forced by the coderivation identity.  On a cycle, source and
    target congruences are read modulo n, and when d = 0 (mod n) the
    defining correction vanishes identically and the coderivation is
    zero; on the chain (n None, j = 0) they are exact index equalities.
    """
    def same(x, y):
        return x == y if n is None else (x - y) % n == 0

    i, l, kind = path.source, path.length, path.kind
    if l < d or same(d, 0):
        return Lin(ctx, kind)
    if l == d:
        if same(i, j):
            return _paths(ctx, kind, (j, 0, 1), (j + d, 0, -1))
        return Lin(ctx, kind)
    if same(i, j):
        if same(l, d):
            return _paths(ctx, kind, (j + d, l - d, -1), (j, l - d, 1))
        return _paths(ctx, kind, (j + d, l - d, -1))
    if same(i + l, j + d):
        return _paths(ctx, kind, (i, l - d, 1))
    return Lin(ctx, kind)


def _exp_correction(x, lam, step):
    """exp(lam * G) for a length-lowering coderivation G.

    The sum is finite on any element, and exponentials of coderivations
    are coalgebra automorphisms, with exp(-lam G) the exact inverse.
    Where G^2 = 0 (no index wrap-around) this is just id + lam G.  The
    series runs on term dicts: one pass over step(path) per order gives
    G^k x, and lam^k / k! is formed once per order from the one before.
    """
    out = x.copy()
    if lam.is_zero():
        return out
    ctx = x.ctx
    term = x.terms
    factor = ctx.one()
    k = 0
    while True:
        acc = {}
        for path, c in term.items():
            for image, ci in step(path).terms.items():
                old = acc.get(image)
                acc[image] = c * ci if old is None else old + c * ci
        term = {p: c for p, c in acc.items() if not c.is_zero()}
        if not term:
            return out
        k += 1
        factor = factor * lam * Fraction(1, k)
        for path, c in term.items():
            out.add_term(path, factor * c)


def cycle_automorphism(n, d, lam, j, x):
    """The automorphism sending p_j^d to p_j^d + lam*(g^j - g^{j+d}).

    Paths of length below d and length-d paths at other sources are
    fixed; longer paths pick up the corrections forced by compatibility
    with the comultiplication.  Implemented as the exponential of the
    underlying coderivation, which also covers the wrap-around cases
    (n = 2d needs a second-order term at length 3d; for d = 0 mod n the
    map degenerates to the identity).  Requires d > 1.
    """
    if d <= 1:
        raise ValueError("cycle automorphism requires degree d > 1")
    if x.space != ("cycle", n):
        raise ValueError("element does not live on the given cycle")
    ctx = x.ctx
    return _exp_correction(x, ctx.scalar(lam),
                           lambda path: _correction(n, d, j, ctx, path))


def chain_automorphism(d, lam, x):
    """Chain version: p_0^d picks up lam*(1 - g^d); every shorter path
    and every other length-d path is fixed.

    Same exponential construction as on the cycle, with the congruence
    conditions replaced by exact index equalities; sources never wrap,
    the coderivation squares to zero, and the map is id + lam G.
    Valid for every d >= 1.
    """
    if d < 1:
        raise ValueError("chain automorphism requires degree d >= 1")
    if x.space != ("chain",):
        raise ValueError("element does not live on the chain")
    ctx = x.ctx
    return _exp_correction(x, ctx.scalar(lam),
                           lambda path: _correction(None, d, 0, ctx, path))

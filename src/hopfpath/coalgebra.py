"""The path coalgebra of a cycle or chain quiver.

Elements are finite linear combinations of paths with coefficients in a
cyclotomic field.  The comultiplication splits a path at every vertex,

    delta(p_i^l) = sum_{t=0..l} p_{i+t}^{l-t} (x) p_i^t,

the counit is supported on vertices, and path length gives the
coradical grading.  The module also provides the degree-d automorphism
families that fix all shorter paths and add a group-like correction to
a single length-d path, the base changes that normalize deformed
multiplications: exp(lam G) of a coderivation G on (path, sign) terms.
"""

from __future__ import annotations

from fractions import Fraction

from .linear import Lin
from .quiver import Path, _require_int

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
    """The pairs (p_{i+t}^{l-t}, p_i^t), t = 0..l, of p_i^l, built
    without Path's checks: every split of a valid path is valid."""
    kind, i, l = path
    new = tuple.__new__
    n = kind[1] if kind[0] == "cycle" else None
    return [(new(Path, (kind, i + t if n is None else (i + t) % n, l - t)),
             new(Path, (kind, i, t))) for t in range(l + 1)]


def _path_terms(x):
    """The terms of a path element; any other space is refused."""
    if type(x.space) is not tuple or type(x.space[0]) is not str:
        raise ValueError(f"not a path element: its space is {x.space!r}")
    return x.terms


def comultiply(x):
    """Deconcatenation: delta(p_i^l) = sum_t p_{i+t}^{l-t} (x) p_i^t.

    Distinct paths have disjoint splits, since a split (l, r) determines
    its path (source of r, total length), so each split of each term is
    written once with the term's coefficient and nothing is added.
    """
    out = Lin(x.ctx, (x.space, x.space))
    out.terms = {key: c for path, c in _path_terms(x).items()
                 for key in splits(path)}
    return out


def counit(x):
    """Sum of the coefficients of length-0 paths."""
    total = x.ctx.zero()
    for path, coeff in _path_terms(x).items():
        if path.length == 0:
            total = total + coeff
    return total


def degree(x):
    """Maximal path length occurring in a nonzero element."""
    if not _path_terms(x):
        raise ValueError("degree of the zero element is undefined")
    return max(path.length for path in x.terms)


# -- coalgebra automorphisms ---------------------------------------------------

def _correction(n, d, j, path):
    """The (path, sign) terms of the degree-lowering coderivation behind
    the automorphism at offset j (unit deformation scalar) on a path.

    Sends p_j^d to g^j - g^{j+d}; on longer paths the piecewise terms
    are forced by the coderivation identity.  On a cycle, source and
    target congruences are read modulo n, and when d = 0 (mod n) the
    defining correction vanishes identically and the coderivation is
    zero; on the chain (n None, j = 0) they are exact index equalities.
    The image paths are built without Path's checks, as in ``splits``:
    path is valid and the callers have checked n, d and j, so only the
    cycle sources j and j + d need reducing modulo n, which is done here.
    """
    kind, i, l = path
    if l < d or n is not None and d % n == 0:
        return ()
    new = tuple.__new__
    if (i == j) if n is None else (i - j) % n == 0:
        s, t = (j, j + d) if n is None else (j % n, (j + d) % n)
        if l == d:
            return (new(Path, (kind, s, 0)), 1), (new(Path, (kind, t, 0)), -1)
        if n is not None and (l - d) % n == 0:
            return (new(Path, (kind, t, l - d)), -1), \
                (new(Path, (kind, s, l - d)), 1)
        return ((new(Path, (kind, t, l - d)), -1),)
    if (i + l == j + d) if n is None else (i + l - j - d) % n == 0:
        return ((new(Path, (kind, i, l - d)), 1),)
    return ()


def _exp_correction(x, lam, n, d, j):
    """exp(lam * G) for the coderivation G = _correction(n, d, j, -).

    The sum is finite on any element, and exponentials of coderivations
    are coalgebra automorphisms, with exp(-lam G) the exact inverse.
    Where G^2 = 0 (no index wrap-around) this is just id + lam G.  One
    pass per order adds c or -c for each (path, sign) term to give G^k x,
    and lam^k / k! is formed once per order from the one before.  x is
    copied once, and the copy is returned as soon as a pass finds no
    term.  Most calls find G x = 0: they form no scalar and do not test
    lam, which is tested for zero only once a term exists.
    """
    out = x.copy()
    term = x.terms
    factor = lam
    k = 0
    while True:
        acc = {}
        for path, c in term.items():
            for image, sign in _correction(n, d, j, path):
                ci = c if sign > 0 else -c
                old = acc.get(image)
                acc[image] = ci if old is None else old + ci
        if not acc:
            return out
        term = {p: c for p, c in acc.items() if not c.is_zero()}
        if not term:
            return out
        k += 1
        if k > 1:
            factor = factor * lam * Fraction(1, k)
        elif lam.is_zero():
            return out
        for path, c in term.items():
            out.add_term(path, factor * c)


def cycle_automorphism(n, d, lam, j, x):
    """The automorphism sending p_j^d to p_j^d + lam*(g^j - g^{j+d}).

    Paths of length below d and length-d paths at other sources are
    fixed; longer paths pick up the corrections forced by compatibility
    with the comultiplication.  Implemented as the exponential of the
    underlying coderivation, which also covers the wrap-around cases
    (n = 2d needs a second-order term at length 3d; for d = 0 mod n the
    map degenerates to the identity).  Requires d > 1; n, d and j must
    be ints.
    """
    _require_int("n", n)
    _require_int("d", d)
    _require_int("j", j)
    if d <= 1:
        raise ValueError("cycle automorphism requires degree d > 1")
    if x.space != ("cycle", n):
        raise ValueError("element does not live on the given cycle")
    return _exp_correction(x, x.ctx.scalar(lam), n, d, j)


def chain_automorphism(d, lam, x):
    """Chain version: p_0^d picks up lam*(1 - g^d); every shorter path
    and every other length-d path is fixed.

    Same exponential construction as on the cycle, with the congruence
    conditions replaced by exact index equalities; sources never wrap,
    the coderivation squares to zero, and the map is id + lam G.
    Valid for every int d >= 1.
    """
    _require_int("d", d)
    if d < 1:
        raise ValueError("chain automorphism requires degree d >= 1")
    if x.space != ("chain",):
        raise ValueError("element does not live on the chain")
    return _exp_correction(x, x.ctx.scalar(lam), None, d, 0)

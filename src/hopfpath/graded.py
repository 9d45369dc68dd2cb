"""Graded multiplication on the path coalgebra of a cycle or chain.

For a cycle of length n the choices of graded product correspond to the
n-th roots of unity q, for the chain to the nonzero field elements.
The product of basis paths is the single closed formula

    p_i^l * p_j^m = q^(i*m) * binom(l+m, l)_q * p_{i+j}^{l+m},

with the index sum taken modulo n on the cycle and in Z on the chain.
Rather than constructing the bimodule machinery behind the formula, the
bialgebra axioms are checked exhaustively on bounded path sets; the
verifier doubles as the oracle for every product identity used later.

The params keep one integer index.  Each path a product meets gets a
path id, and each structure-coefficient value a coefficient id in the
one canonical coefficient table (zero is id 0).  The products of basis
paths are kept in one row per path id, which maps the right factor's id
to (product id, coefficient id), or None if the product is zero; a row
entry is filled through ``_mul_path_raw`` the first time its pair is
met, so each basis-path product is formed once per params.  The
products and sums of two coefficients are kept in tables keyed by pairs
of coefficient ids, each formed once per params.  The pair and triple
checks of ``verify_graded_bialgebra`` run on ids: their loops hash ints
and pairs of ints, and a path or ``Scalar`` is hashed only when a path
is split or a product is first formed.
"""

from __future__ import annotations

from .coalgebra import splits
from .linear import Lin
from .quiver import Path, chain_kind, cycle_kind, enumerate_paths
from .report import VerificationReport
from .scalars import gauss_binom_row

__all__ = [
    "MAX_BASIS_TUPLES",
    "GradedHopfParams",
    "multiply",
    "unit",
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
        # the path index: id -> path (the one copy kept), path -> id, and
        # id -> row of products {right id: (product id, coefficient id)
        # or None}
        self._paths = []
        self._path_ids = {}
        self._rows = []
        # the coefficient table: id -> Scalar and Scalar -> id, zero
        # seeded as id 0; and the ids of the products and sums of two
        # coefficients, keyed by pairs of ids
        zero = self.ctx.zero()
        self._coeffs = [zero]
        self._coeff_ids = {zero: 0}
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

    def _path_id(self, path):
        """The id of path's value, given on first sight."""
        out = self._path_ids.get(path)
        if out is None:
            out = self._path_ids[path] = len(self._paths)
            self._paths.append(path)
            self._rows.append({})
        return out

    def _coeff_id(self, c):
        """The id of c's value in the coefficient table."""
        out = self._coeff_ids.get(c)
        if out is None:
            out = self._coeff_ids[c] = len(self._coeffs)
            self._coeffs.append(c)
        return out

    def _product(self, x, y):
        """The id of x * y, for coefficient ids x and y, formed once per
        pair."""
        out = self._products.get((x, y))
        if out is None:
            coeffs = self._coeffs
            out = self._products[x, y] = self._coeff_id(coeffs[x] * coeffs[y])
        return out

    def _sum(self, x, y):
        """The id of x + y, for coefficient ids x and y, formed once per
        pair."""
        out = self._sums.get((x, y))
        if out is None:
            coeffs = self._coeffs
            out = self._sums[x, y] = self._coeff_id(coeffs[x] + coeffs[y])
        return out

    def __repr__(self):
        return f"GradedHopfParams({self.kind}, q={self.q})"


def _mul_path_raw(params, a, b):
    """Product of two basis paths: (path, coefficient) or None if zero.

    The product is formed on the first call for a pair of values and
    kept in the row of a's id, under b's id; coefficient id 0 is zero,
    so a zero product is kept as None.
    """
    ids = params._path_ids
    i, j = ids.get(a), ids.get(b)
    if i is None or j is None:
        i, j = params._path_id(a), params._path_id(b)
    row = params._rows[i]
    out = row.get(j, False)
    if out is False:
        kind, source, l = a
        _, s, m = b
        coeff_id = params._coeff_id
        c = params._product(coeff_id(params.q_power(source * m)),
                            coeff_id(params.binom(l + m, l)))
        # the product of two valid paths is valid: built unchecked, as
        # in ``splits``, its source reduced modulo n on a cycle
        source += s
        if kind[0] == "cycle":
            source %= kind[1]
        out = row[j] = None if c == 0 else (params._path_id(
            tuple.__new__(Path, (kind, source, l + m))), c)
    return None if out is None else (params._paths[out[0]],
                                     params._coeffs[out[1]])


def _fill(params, i, j):
    """Row i's entry for j, filled through ``_mul_path_raw``."""
    paths = params._paths
    _mul_path_raw(params, paths[i], paths[j])
    return params._rows[i][j]


def multiply(params, x, y):
    """Bilinear extension of the path product: a path's first term is
    stored as it is, not added to zero, and sums that cancel are
    dropped."""
    if x.space != params.kind or y.space != params.kind:
        raise ValueError("element does not match the multiplication parameters")
    acc = {}
    for pa, ca in x.terms.items():
        for pb, cb in y.terms.items():
            out = _mul_path_raw(params, pa, pb)
            if out is None:
                continue
            path, coeff = out
            c = ca * cb * coeff
            old = acc.get(path)
            acc[path] = c if old is None else old + c
    out = Lin(params.ctx, params.kind)
    out.terms = {path: c for path, c in acc.items() if not c.is_zero()}
    return out


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


def verify_graded_bialgebra(params, max_len, assoc_len=None):
    """Exhaustive bialgebra axioms on paths of bounded length.

    Checks associativity (on triples up to assoc_len, default
    max_len - 1, at most max_len), unitality, multiplicativity of the
    comultiplication in the tensor-square algebra, and multiplicativity
    of the counit.  Unitality runs on the element API; the pairs and
    triples are checked on the ids of basis paths, where a product is
    one (path id, coefficient id) pair or zero.  Failures are recorded
    with the offending paths, not raised.
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
    paths = params._paths
    basis = [params._path_id(p)
             for p in enumerate_paths(params.kind, max_len,
                                      (-max_len, max_len))]
    one = unit(params)
    bad = None
    for a in basis:
        ea = Lin.from_path(params.ctx, paths[a])
        if multiply(params, one, ea) != ea or multiply(params, ea, one) != ea:
            bad = str(paths[a])
            break
    rep.add("unitality", bad is None, bad or "")
    bad = _bialgebra_pair_failure(params, basis)
    rep.add("comultiplication is an algebra map", bad is None, bad or "")
    bad = _associativity_failure(
        params, [a for a in basis if paths[a].length <= assoc_len])
    rep.add("associativity", bad is None, bad or "")
    return rep


def _bialgebra_pair_failure(params, basis):
    """The first pair (a, b) of basis path ids with
    delta(a*b) != delta(a) delta(b) or epsilon(a*b) != epsilon(a) epsilon(b),
    as a witness, or None.

    delta(a) delta(b) is summed over the split pairs of a and b in the
    component-wise tensor-square product; delta(a*b) is the splits of
    the one product path.  Every path met, basis or product, is split
    once per verdict, into pairs of path ids.  Products of paths are
    read from the params' rows, and products and running sums of
    coefficients from its tables of coefficient ids, so both sides are
    dicts from pairs of path ids to coefficient ids, and a sum that
    cancels is id 0, zero.  Both sides keep only nonzero coefficients.
    """
    paths, rows, path_id = params._paths, params._rows, params._path_id
    product, add = params._product, params._sum
    one = params._coeff_id(params.ctx.one())
    cuts = {}

    def cut(i):
        out = cuts.get(i)
        if out is None:
            out = cuts[i] = [(path_id(l), path_id(r))
                             for l, r in splits(paths[i])]
        return out

    basis_cuts = [(a, cut(a), paths[a].length == 0) for a in basis]
    for a, cut_a, vertex_a in basis_cuts:
        row_a = rows[a]
        for b, cut_b, vertex_b in basis_cuts:
            out = row_a.get(b, False)
            if out is False:
                out = _fill(params, a, b)
            acc = {}
            for al, ar in cut_a:
                row_l, row_r = rows[al], rows[ar]
                for bl, br in cut_b:
                    left = row_l.get(bl, False)
                    if left is False:
                        left = _fill(params, al, bl)
                    if left is None:
                        continue
                    right = row_r.get(br, False)
                    if right is False:
                        right = _fill(params, ar, br)
                    if right is None:
                        continue
                    key = left[0], right[0]
                    c = product(left[1], right[1])
                    old = acc.get(key)
                    acc[key] = c if old is None else add(old, c)
            lhs = {} if out is None else dict.fromkeys(cut(out[0]), out[1])
            if {k: c for k, c in acc.items() if c} != lhs:
                return f"delta({paths[a]} * {paths[b]})"
            eps = out[1] if out is not None \
                and paths[out[0]].length == 0 else 0
            if eps != (one if vertex_a and vertex_b else 0):
                return f"counit({paths[a]} * {paths[b]})"
    return None


def _associativity_failure(params, basis):
    """The first triple of basis path ids with (a*b)*c != a*(b*c), as a
    witness, or None.

    Each side is one (path id, coefficient id) pair or None: the path
    products are read from the params' rows, and the product of the two
    coefficients from its table, so each distinct product is formed once
    per params, not once per triple.
    """
    paths, rows, product = params._paths, params._rows, params._product
    for a in basis:
        row_a = rows[a]
        for b in basis:
            ab = row_a.get(b, False)
            if ab is False:
                ab = _fill(params, a, b)
            row_ab = None if ab is None else rows[ab[0]]
            row_b = rows[b]
            for c in basis:
                lhs = rhs = None
                if ab is not None:
                    out = row_ab.get(c, False)
                    if out is False:
                        out = _fill(params, ab[0], c)
                    if out is not None:
                        lhs = out[0], product(ab[1], out[1])
                bc = row_b.get(c, False)
                if bc is False:
                    bc = _fill(params, b, c)
                if bc is not None:
                    out = row_a.get(bc[0], False)
                    if out is False:
                        out = _fill(params, a, bc[0])
                    if out is not None:
                        rhs = out[0], product(out[1], bc[1])
                if lhs != rhs:
                    return f"({paths[a]} * {paths[b]}) * {paths[c]}"
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

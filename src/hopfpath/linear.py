"""Sparse linear combinations: one type for every basis in the package.

An element is a dict from basis keys to nonzero scalars of one
cyclotomic context.  ``space`` names the basis:

- a quiver kind, ``("cycle", n)`` or ``("chain",)``, for paths;
- a ``RewriteSystem`` for the PBW monomials p^k a^j h^i it presents;
- a pair of either for a tensor square, whose keys are key pairs.

Sums, differences and equality compare spaces; a sum across two spaces
raises ValueError.  Elements are values: every operator returns a new
element.  ``add_term`` and ``add_scaled`` change an element in place
and are meant for accumulators the caller has just created.
"""

from __future__ import annotations

from .scalars import Scalar

__all__ = ["Lin"]


def _sort_key(key):
    if type(key) is tuple:
        return tuple(k.sort_key() for k in key)
    return key.sort_key()


class Lin:
    """A finite linear combination of the basis keys of one space."""

    __slots__ = ("ctx", "space", "terms")

    def __init__(self, ctx, space, terms=None):
        self.ctx = ctx
        self.space = space
        if not terms:
            self.terms = {}
            return
        if type(space) is tuple and type(space[0]) is str \
                and any(key.kind != space for key in terms):
            raise ValueError("mixed quiver kinds in one element")
        self.terms = {key: c for key, c in terms.items() if not c.is_zero()}

    @classmethod
    def from_path(cls, ctx, path, coeff=1):
        """coeff times path; the default int 1 stores the context's one
        without coercing it or testing it for zero."""
        out = cls(ctx, path.kind)
        if type(coeff) is int and coeff == 1:
            out.terms[path] = ctx.one()
        elif not (c := ctx.scalar(coeff)).is_zero():
            out.terms[path] = c
        return out

    def _like(self, terms):
        """A new element of this space over ``terms``, which has no zeros."""
        out = Lin(self.ctx, self.space)
        out.terms = terms
        return out

    def copy(self):
        """A new element with the same terms, safe to change in place."""
        return self._like(dict(self.terms))

    def _check(self, other):
        if self.space is not other.space and self.space != other.space:
            raise ValueError("elements live in different spaces")

    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(key, self.ctx.zero())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    # -- in-place accumulation ---------------------------------------------

    def add_term(self, key, coeff):
        """Add coeff * key in place; coeff is a Scalar of this context."""
        terms = self.terms
        old = terms.get(key)
        if old is not None:
            coeff = old + coeff
        if coeff.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = coeff
        return self

    def add_scaled(self, x, coeff=1):
        """Add coeff * x in place."""
        self._check(x)
        c = coeff if type(coeff) is Scalar and coeff.ctx is self.ctx \
            else self.ctx.scalar(coeff)
        if c.is_zero():
            return self
        if c == 1:
            c = None
        for key, v in x.terms.items():
            self.add_term(key, v if c is None else c * v)
        return self

    # -- linear maps ---------------------------------------------------------

    def map_terms(self, image, space=None):
        """Linear extension of key -> image(key), an element of ``space``
        (default: this element's space)."""
        out = Lin(self.ctx, self.space if space is None else space)
        for key, c in self.terms.items():
            out.add_scaled(image(key), c)
        return out

    def map_factors(self, left, right):
        """Apply linear maps, given on basis keys, to both tensor factors."""
        out = Lin(self.ctx, self.space)
        for (kl, kr), c in self.terms.items():
            er = right(kr).terms
            for ql, cl in left(kl).terms.items():
                ccl = c * cl
                for qr, cr in er.items():
                    out.add_term((ql, qr), ccl * cr)
        return out

    # -- vector-space operations ---------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self.copy().add_scaled(other)

    def __sub__(self, other):
        self._check(other)
        return self.copy().add_scaled(other, -1)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, coeff):
        c = self.ctx.scalar(coeff)
        if c.is_zero():
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    __rmul__ = scale

    def __mul__(self, other):
        """Scale by a scalar, or multiply in a presentation or its square.

        Tensor-square products are component-wise; the relation-coproduct
        checks are the arbiter for that reading.  Path elements multiply
        through ``graded.multiply``, which knows the structure scalar q.
        """
        if not isinstance(other, Lin):
            return self.scale(other)
        self._check(other)
        space = self.space
        rs = space[0] if type(space) is tuple else space
        if not hasattr(rs, "mono_product"):
            raise TypeError("path elements multiply through graded.multiply")
        if rs is space:
            return rs.multiply(self, other)
        acc = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                left = rs.mono_product(l1, l2)
                if not left:
                    continue
                right = rs.mono_product(r1, r2)
                if not right:
                    continue
                c = c1 * c2
                for ml, cl in left.items():
                    ccl = c * cl
                    for mr, cr in right.items():
                        key = (ml, mr)
                        old = acc.get(key)
                        acc[key] = ccl * cr if old is None \
                            else old + ccl * cr
        return Lin(self.ctx, space, acc)

    def __eq__(self, other):
        if not isinstance(other, Lin):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    # -- PBW weight (space is a RewriteSystem) ------------------------------

    def weight(self):
        if not self.terms:
            return None
        return max(self.space.monomial_weight(m) for m in self.terms)

    def weight_part(self, w):
        """The sub-sum of terms of exact weight w."""
        return self._like({m: c for m, c in self.terms.items()
                           if self.space.monomial_weight(m) == w})

    # -- rendering ------------------------------------------------------------

    def __str__(self):
        """Terms in basis order; compound coefficients are parenthesized,
        a coefficient of 1 is omitted and one on the unit stands alone."""
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            body = " (x) ".join(map(str, key)) if type(key) is tuple \
                else str(key)
            if c == 1:
                parts.append(body)
                continue
            coeff = str(c)
            if "+" in coeff[1:] or "-" in coeff[1:]:
                coeff = f"({coeff})"
            parts.append(coeff if body == "1" else f"{coeff} * {body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Lin({self})"

"""Groups with ramification data and the quivers they generate.

A ramification datum assigns a multiplicity to each conjugacy class of a
group G.  The associated quiver has vertex set G and, for each class C
with multiplicity R_C and each c in C, R_C arrows x -> cx.  The two
minimal connected cases are the basic n-cycle (cyclic group, class {g})
and the linear chain (infinite cyclic group, class {g}); their paths are
the basis of everything downstream.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "MAX_GROUP_ORDER",
    "MAX_WINDOW_WIDTH",
    "MAX_QUIVER_ARROWS",
    "GroupSpec",
    "HopfQuiver",
    "Arrow",
    "Path",
    "cycle_kind",
    "chain_kind",
    "cycle_path",
    "chain_path",
    "build_hopf_quiver",
    "conjugacy_classes",
    "conjugacy_class_of",
    "resolve_ramification",
    "is_connected_hopf_quiver",
    "enumerate_paths",
]

# The largest finite group, window of chain vertices and quiver that may
# be built.  The Cayley table of a group holds order^2 entries and its
# conjugacy classes take order^2 products, so a request past a bound is
# refused before any table or arrow exists.  The paper's minimal
# quivers need one arrow class on a few vertices.
MAX_GROUP_ORDER = 1_000
MAX_WINDOW_WIDTH = 10_000
MAX_QUIVER_ARROWS = 100_000


class GroupSpec:
    """A group given as a Cayley table, with cyclic shortcuts.

    Variants: ``cyclic(n)``, ``infinite_cyclic()`` and ``from_table``.
    Finite tables are checked for the group axioms on construction.
    """

    def __init__(self, kind, n=None, labels=None, table=None):
        self.kind = kind
        self.n = n
        self.labels = labels
        self.table = table
        if kind == "table":
            self._check_axioms()

    # -- constructors ------------------------------------------------------

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise ValueError("cyclic group order must be positive")
        _check_order(n)
        labels = [_power_label(k) for k in range(n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls("cyclic", n=n, labels=labels, table=table)

    @classmethod
    def infinite_cyclic(cls):
        return cls("infinite-cyclic")

    @classmethod
    def from_table(cls, labels, table):
        _check_order(len(labels))
        return cls("table", n=len(labels), labels=list(labels),
                   table=[list(row) for row in table])

    @classmethod
    def from_multiplication(cls, labels, mul):
        """Build a table group from labels and a label-level product."""
        labels = list(labels)
        _check_order(len(labels))
        index = {lab: k for k, lab in enumerate(labels)}
        table = [[index[mul(a, b)] for b in labels] for a in labels]
        return cls.from_table(labels, table)

    # -- structure ---------------------------------------------------------

    @property
    def is_finite(self):
        return self.kind != "infinite-cyclic"

    def _check_axioms(self):
        n = self.n
        for row in self.table:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise ValueError("Cayley table is not square over the labels")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("Cayley table has no identity element")
        self._identity = identity
        self._check_associative()
        for a in range(n):
            if not any(self.table[a][b] == identity and self.table[b][a] == identity
                       for b in range(n)):
                raise ValueError("Cayley table has an element without inverse")

    def _check_associative(self):
        """Light's test: (x s) y = x (s y) for all x, y and each s of a
        generating set, taken greedily from the elements not yet reached
        from the identity.  The s that pass are closed under products,
        so once they generate the table it is associative, and their
        products are reached left to right.  Each generator costs n^2
        products, and a group needs at most log2(n) of them.
        """
        table = self.table
        reached = {self._identity}
        gens = []
        for s in range(self.n):
            if s in reached:
                continue
            row_s = table[s]
            for row_x in table:
                if table[row_x[s]] != [row_x[v] for v in row_s]:
                    raise ValueError("Cayley table is not associative")
            gens.append(s)
            stack = list(reached)
            while stack:
                row_x = table[stack.pop()]
                for g in gens:
                    if row_x[g] not in reached:
                        reached.add(row_x[g])
                        stack.append(row_x[g])

    def identity_index(self):
        if not self.is_finite:
            raise ValueError("infinite group has no element table")
        if self.kind == "cyclic":
            return 0
        return self._identity

    def mul(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        e = self.identity_index()
        for b in range(self.n):
            if self.mul(a, b) == e:
                return b
        raise AssertionError("group axiom check should have caught this")

    def label(self, index):
        return self.labels[index]

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown group element {label!r}") from None

    def __repr__(self):
        if self.kind == "cyclic":
            return f"GroupSpec.cyclic({self.n})"
        if self.kind == "infinite-cyclic":
            return "GroupSpec.infinite_cyclic()"
        return f"GroupSpec.from_table({self.labels!r})"


def _check_order(n):
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"group order {n:,} exceeds the maximum of "
                         f"{MAX_GROUP_ORDER:,}")


def _power_label(k):
    if k == 0:
        return "e"
    if k == 1:
        return "g"
    return f"g^{k}"


def _parse_power_label(label):
    if label == "e":
        return 0
    if label == "g":
        return 1
    if label.startswith("g^"):
        return int(label[2:])
    raise ValueError(f"unknown group element {label!r}")


# -- conjugacy classes -------------------------------------------------------

def conjugacy_classes(group):
    """Partition of a finite group into conjugacy classes.

    Classes are sorted label lists; the class identifier used elsewhere
    is the lexicographically least label of the class.
    """
    if not group.is_finite:
        raise ValueError("use singleton classes {g^k} directly")
    n, table = group.n, group.table
    inverse = [group.inverse(t) for t in range(n)]
    seen = [False] * n
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = {table[table[t][x]][inverse[t]] for t in range(n)}
        for y in orbit:
            seen[y] = True
        classes.append(sorted(group.label(y) for y in orbit))
    classes.sort(key=lambda cls: cls[0])
    return classes


def conjugacy_class_of(group, label):
    """The class identifier (least label) of the class containing label.

    Cyclic groups are abelian, so every class is a singleton and no
    class is computed.
    """
    if group.kind == "infinite-cyclic":
        _parse_power_label(label)
        return label
    if group.kind == "cyclic":
        group.index_of(label)
        return label
    for cls in conjugacy_classes(group):
        if label in cls:
            return cls[0]
    raise ValueError(f"unknown group element {label!r}")


def resolve_ramification(group, entries):
    """Normalize a label -> multiplicity map to class-id keys."""
    _check_multiplicities(entries)
    out = {}
    for label, mult in entries.items():
        cid = conjugacy_class_of(group, label)
        out[cid] = out.get(cid, 0) + mult
    return out


def _check_multiplicities(ramification):
    for label, mult in ramification.items():
        if mult < 0:
            raise ValueError(f"multiplicity of {label!r} must be "
                             f"nonnegative, not {mult}")


def _check_arrows(count):
    if count > MAX_QUIVER_ARROWS:
        raise ValueError(f"{count:,} arrows exceed the maximum of "
                         f"{MAX_QUIVER_ARROWS:,}")


# -- quivers -----------------------------------------------------------------

class Arrow(NamedTuple):
    src: str
    tgt: str
    cls: str
    copy: int


class HopfQuiver:
    def __init__(self, vertices, arrows):
        self.vertices = vertices
        self.arrows = arrows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.arrows) == (other.vertices, other.arrows)

    def __repr__(self):
        return (f"HopfQuiver(vertices={self.vertices!r}, "
                f"arrows={self.arrows!r})")

    def out_degree(self, vertex):
        return sum(1 for a in self.arrows if a.src == vertex)

    def in_degree(self, vertex):
        return sum(1 for a in self.arrows if a.tgt == vertex)

    def to_dict(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [
                {"src": a.src, "tgt": a.tgt, "class": a.cls, "copy": a.copy}
                for a in self.arrows
            ],
        }

    def is_connected_undirected(self):
        if not self.vertices:
            return True
        adjacency = {v: set() for v in self.vertices}
        for a in self.arrows:
            adjacency[a.src].add(a.tgt)
            adjacency[a.tgt].add(a.src)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def build_hopf_quiver(group, ramification, window=None):
    """The quiver of (group, ramification): R_C arrows x -> cx per c in C.

    For the infinite cyclic group a window (lo, hi) of generator
    exponents must be supplied; only arrows with both endpoints inside
    the window are materialized.  A negative multiplicity, a reversed or
    over-wide window and a quiver over MAX_QUIVER_ARROWS arrows are
    refused before any arrow is built.
    """
    _check_multiplicities(ramification)
    if group.kind == "infinite-cyclic":
        if window is None:
            raise ValueError("infinite cyclic group needs a vertex window")
        lo, hi = window
        if lo > hi:
            raise ValueError(f"window {lo}:{hi} is reversed")
        if hi - lo + 1 > MAX_WINDOW_WIDTH:
            raise ValueError(f"window of {hi - lo + 1:,} vertices exceeds "
                             f"the maximum of {MAX_WINDOW_WIDTH:,}")
        shifts = {}
        for label, mult in ramification.items():
            shifts[_parse_power_label(label)] = mult
        _check_arrows(sum(mult * max(0, hi - lo + 1 - abs(shift))
                          for shift, mult in shifts.items()))
        vertices = [_power_label(k) for k in range(lo, hi + 1)]
        arrows = []
        for k in range(lo, hi + 1):
            for shift in sorted(shifts):
                mult = shifts[shift]
                if lo <= k + shift <= hi:
                    for copy in range(mult):
                        arrows.append(Arrow(_power_label(k), _power_label(k + shift),
                                            _power_label(shift), copy))
        return HopfQuiver(vertices, arrows)

    classes = {cls[0]: cls for cls in conjugacy_classes(group)}
    for key in ramification:
        if key not in classes:
            raise ValueError(f"ramification key {key!r} is not a conjugacy class")
    _check_arrows(group.n * sum(mult * len(classes[cid])
                                for cid, mult in ramification.items()))
    vertices = list(group.labels)
    arrows = []
    for x in range(group.n):
        for cid in sorted(ramification):
            mult = ramification[cid]
            for c_label in classes[cid]:
                c = group.index_of(c_label)
                tgt = group.mul(c, x)
                for copy in range(mult):
                    arrows.append(Arrow(group.label(x), group.label(tgt),
                                        cid, copy))
    return HopfQuiver(vertices, arrows)


def is_connected_hopf_quiver(group, ramification):
    """True iff the classes with nonzero multiplicity generate the group."""
    if not group.is_finite:
        raise ValueError("connectivity test requires a finite group")
    classes = {cls[0]: cls for cls in conjugacy_classes(group)}
    for key in ramification:
        if key not in classes:
            raise ValueError(f"ramification key {key!r} is not a conjugacy class")
    generators = set()
    for cid, mult in ramification.items():
        if mult > 0:
            generators.update(group.index_of(lab) for lab in classes[cid])
    closure = {group.identity_index()}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for s in generators:
            y = group.mul(s, x)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return len(closure) == group.n


# -- paths -------------------------------------------------------------------

def _require_int(name, value):
    """Refuse a quiver or path index that is not an int (a bool is
    refused too), naming its field."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")


def cycle_kind(n):
    _require_int("n", n)
    if n < 1:
        raise ValueError("cycle length must be positive")
    return ("cycle", n)


def chain_kind():
    return ("chain",)


class _PathFields(NamedTuple):
    kind: tuple
    source: int
    length: int


class Path(_PathFields):
    """The path p_i^l: source index i, length l, in a cycle or chain.

    A tuple (kind, source, length), so hash and equality are the
    tuple's own: paths key every dict in the package.  Cycle sources
    are reduced modulo n on construction, so equal paths are equal
    tuples; length 0 is the vertex g^i.  Source and length must be
    ints: a float or string index is refused, not carried into a key.
    """

    __slots__ = ()

    def __new__(cls, kind, source, length):
        _require_int("source", source)
        _require_int("length", length)
        if length < 0:
            raise ValueError("path length must be nonnegative")
        if kind[0] == "cycle":
            source %= kind[1]
        elif kind[0] != "chain":
            raise ValueError(f"unknown quiver kind {kind!r}")
        return tuple.__new__(cls, (kind, source, length))

    @classmethod
    def _make(cls, iterable):
        # the tuple API (_make, _replace) validates and reduces as well
        return cls(*iterable)

    @property
    def target(self):
        t = self.source + self.length
        if self.kind[0] == "cycle":
            t %= self.kind[1]
        return t

    def sort_key(self):
        return (self.length, self.source)

    def __str__(self):
        if self.length == 0:
            if self.source == 0:
                return "1"
            return f"g^{self.source}"
        return f"p[{self.source},{self.length}]"


def cycle_path(n, source, length):
    return Path(cycle_kind(n), source, length)


def chain_path(source, length):
    return Path(chain_kind(), source, length)


def enumerate_paths(kind, max_len, window=None):
    """All p_i^l with 0 <= l <= max_len; chain sources come from window,
    whose ends, like max_len, must be ints."""
    _require_int("max_len", max_len)
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out = []
    if kind[0] == "cycle":
        n = kind[1]
        for l in range(max_len + 1):
            for i in range(n):
                out.append(Path(kind, i, l))
    else:
        if window is None:
            raise ValueError("chain enumeration needs a source window")
        lo, hi = window
        _require_int("window start", lo)
        _require_int("window end", hi)
        for l in range(max_len + 1):
            for i in range(lo, hi + 1):
                out.append(Path(kind, i, l))
    return out

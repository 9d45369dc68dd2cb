import copy
import pickle
from itertools import product

import pytest
from hypothesis import given, strategies as st

from hopfpath import (
    GroupSpec, Path, build_hopf_quiver, chain_kind, conjugacy_class_of,
    conjugacy_classes, cycle_kind, cycle_path, enumerate_paths,
    is_connected_hopf_quiver, resolve_ramification,
)


def _compose(p, q):
    # permutations as tuples: (p*q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


_S3_PERMS = {
    "e": (0, 1, 2),
    "(12)": (1, 0, 2),
    "(13)": (2, 1, 0),
    "(23)": (0, 2, 1),
    "(123)": (1, 2, 0),
    "(132)": (2, 0, 1),
}


def s3():
    labels = sorted(_S3_PERMS)
    inverse = {perm: lab for lab, perm in _S3_PERMS.items()}
    return GroupSpec.from_multiplication(
        labels, lambda a, b: inverse[_compose(_S3_PERMS[a], _S3_PERMS[b])])


def test_cyclic_group_table():
    g = GroupSpec.cyclic(4)
    assert g.labels == ["e", "g", "g^2", "g^3"]
    assert g.mul(g.index_of("g^2"), g.index_of("g^3")) == g.index_of("g")
    assert g.inverse(g.index_of("g")) == g.index_of("g^3")


def test_bad_table_rejected():
    with pytest.raises(ValueError, match="identity"):
        GroupSpec.from_table(["a", "b"], [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="associative"):
        # two-sided identity but (1*1)*1 != 1*(1*1)
        GroupSpec.from_table(["0", "1", "2"],
                             [[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def _brute_force_defect(table):
    """The first group axiom a table breaks, checking every triple."""
    n = len(table)
    units = [e for e in range(n)
             if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not units:
        return "identity"
    if any(table[table[a][b]][c] != table[a][table[b][c]]
           for a, b, c in product(range(n), repeat=3)):
        return "associative"
    if not all(any(table[a][b] == units[0] == table[b][a] for b in range(n))
               for a in range(n)):
        return "inverse"
    return None


@st.composite
def _tables(draw):
    """Random tables of order <= 5, half with a two-sided identity at 0,
    and relabeled products Z/a x Z/b, some with one entry changed."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        table = [draw(st.lists(st.integers(0, n - 1), min_size=n,
                               max_size=n)) for _ in range(n)]
        if draw(st.booleans()):
            for x in range(n):
                table[0][x] = table[x][0] = x
        return table
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    elems = [(x, y) for x in range(a) for y in range(b)]
    perm = draw(st.permutations(range(len(elems))))
    label = {e: perm[k] for k, e in enumerate(elems)}
    table = [[None] * len(elems) for _ in elems]
    for (x, y), (u, v) in product(elems, repeat=2):
        table[label[(x, y)]][label[(u, v)]] = label[((x + u) % a,
                                                     (y + v) % b)]
    if draw(st.booleans()):
        index = st.integers(0, len(elems) - 1)
        table[draw(index)][draw(index)] = draw(index)
    return table


@given(_tables())
def test_table_check_agrees_with_brute_force(table):
    labels = [str(k) for k in range(len(table))]
    defect = _brute_force_defect(table)
    if defect is None:
        GroupSpec.from_table(labels, table)
    else:
        with pytest.raises(ValueError, match=defect):
            GroupSpec.from_table(labels, table)


def test_order_1000_table_is_checked():
    n = 1000
    labels = [str(k) for k in range(n)]
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    assert GroupSpec.from_table(labels, table).inverse(1) == n - 1
    table[1][1] = 3  # (1*1)*2 = 5, but 1*(1*2) = 4
    with pytest.raises(ValueError, match="associative"):
        GroupSpec.from_table(labels, table)


def test_conjugacy_classes_cyclic():
    assert conjugacy_classes(GroupSpec.cyclic(4)) \
        == [["e"], ["g"], ["g^2"], ["g^3"]]
    assert conjugacy_classes(GroupSpec.cyclic(1)) == [["e"]]


def test_conjugacy_classes_s3():
    classes = conjugacy_classes(s3())
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]
    assert ["(12)", "(13)", "(23)"] in classes
    assert ["(123)", "(132)"] in classes


def test_conjugacy_classes_infinite_errors():
    with pytest.raises(ValueError, match="singleton"):
        conjugacy_classes(GroupSpec.infinite_cyclic())


def test_one_loop_quiver():
    q = build_hopf_quiver(GroupSpec.cyclic(1), {"e": 1})
    assert q.vertices == ["e"]
    assert len(q.arrows) == 1
    assert q.arrows[0].src == q.arrows[0].tgt == "e"


def test_basic_three_cycle():
    q = build_hopf_quiver(GroupSpec.cyclic(3), {"g": 1})
    assert [(a.src, a.tgt) for a in q.arrows] \
        == [("e", "g"), ("g", "g^2"), ("g^2", "e")]


def test_s3_transposition_quiver():
    group = s3()
    cid = conjugacy_class_of(group, "(13)")
    assert cid == "(12)"
    q = build_hopf_quiver(group, {cid: 1})
    assert len(q.vertices) == 6
    assert len(q.arrows) == 18
    for v in q.vertices:
        assert q.out_degree(v) == 3
        assert q.in_degree(v) == 3


def test_ramification_key_validation():
    with pytest.raises(ValueError, match="not a conjugacy class"):
        build_hopf_quiver(GroupSpec.cyclic(3), {"x": 1})
    group = s3()
    # "(13)" is a class member but not the class identifier
    with pytest.raises(ValueError, match="not a conjugacy class"):
        build_hopf_quiver(group, {"(13)": 1})
    assert resolve_ramification(group, {"(13)": 1}) == {"(12)": 1}


def test_regularity_matches_ramification():
    group = s3()
    ram = {"(12)": 1, "(123)": 2}
    q = build_hopf_quiver(group, ram)
    expected = 1 * 3 + 2 * 2
    for v in q.vertices:
        assert q.out_degree(v) == expected
        assert q.in_degree(v) == expected


def test_multiplicity_two_loop():
    q = build_hopf_quiver(GroupSpec.cyclic(2), {"g": 2})
    assert len(q.arrows) == 4
    assert sorted(a.copy for a in q.arrows if a.src == "e") == [0, 1]


def test_infinite_chain_window():
    group = GroupSpec.infinite_cyclic()
    with pytest.raises(ValueError, match="window"):
        build_hopf_quiver(group, {"g": 1})
    q = build_hopf_quiver(group, {"g": 1}, window=(-2, 2))
    assert len(q.vertices) == 5
    assert len(q.arrows) == 4
    assert q.arrows[0].src == "g^-2"


def test_connectivity_examples():
    assert is_connected_hopf_quiver(GroupSpec.cyclic(4), {"g^2": 1}) is False
    assert is_connected_hopf_quiver(GroupSpec.cyclic(4), {"g": 1}) is True
    assert is_connected_hopf_quiver(s3(), {"(12)": 1}) is True
    assert is_connected_hopf_quiver(s3(), {"(123)": 1}) is False


def test_connectivity_matches_graph_search():
    cases = [
        (GroupSpec.cyclic(4), {"g^2": 1}),
        (GroupSpec.cyclic(4), {"g": 1}),
        (GroupSpec.cyclic(6), {"g^2": 1, "g^3": 1}),
        (s3(), {"(12)": 1}),
        (s3(), {"(123)": 1}),
    ]
    for group, ram in cases:
        quiver = build_hopf_quiver(group, ram)
        assert is_connected_hopf_quiver(group, ram) \
            == quiver.is_connected_undirected()


def test_enumerate_paths_counts():
    two = enumerate_paths(cycle_kind(2), 1)
    assert {(p.source, p.length) for p in two} \
        == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(enumerate_paths(cycle_kind(3), 2)) == 9
    assert len(enumerate_paths(chain_kind(), 1, window=(-1, 1))) == 6


def test_path_hash_follows_the_reduced_source():
    # the cached hash is taken after the source is reduced modulo n
    wrapped, plain = Path(("cycle", 6), 7, 2), Path(("cycle", 6), 1, 2)
    assert wrapped == plain and hash(wrapped) == hash(plain)
    assert wrapped.source == 1
    assert repr(wrapped) == "Path(kind=('cycle', 6), source=1, length=2)"
    assert len({wrapped: 1, plain: 2}) == 1
    assert Path(("chain",), 7, 2) != Path(("chain",), 1, 2)


def test_cycle_path_concatenability():
    # p_j^m follows p_i^l exactly when j = i + l mod n
    paths = enumerate_paths(cycle_kind(3), 2)
    for left in paths:
        for right in paths:
            composable = (right.source + right.length) % 3 == left.source
            assert composable == (left.source == right.target)


def test_quiver_json_shape():
    q = build_hopf_quiver(GroupSpec.cyclic(2), {"g": 1})
    data = q.to_dict()
    assert data["vertices"] == ["e", "g"]
    assert data["arrows"][0] == {"src": "e", "tgt": "g", "class": "g",
                                 "copy": 0}


def test_connectivity_requires_finite_group():
    with pytest.raises(ValueError, match="finite group"):
        is_connected_hopf_quiver(GroupSpec.infinite_cyclic(), {"g": 1})


def test_path_keeps_its_validation_and_survives_copy_and_pickle():
    with pytest.raises(ValueError, match="^path length must be nonnegative$"):
        Path(("cycle", 3), 0, -1)
    with pytest.raises(ValueError,
                       match=r"^unknown quiver kind \('loop', 3\)$"):
        Path(("loop", 3), 0, 1)
    for path in (Path(("cycle", 6), 7, 2), Path(("chain",), -3, 4)):
        for twin in (copy.copy(path), copy.deepcopy(path),
                     pickle.loads(pickle.dumps(path))):
            assert type(twin) is Path
            assert twin == path and hash(twin) == hash(path)
    # the tuple API builds through the same validation
    assert Path(("cycle", 6), 1, 2)._replace(source=7) \
        == Path(("cycle", 6), 7, 2)
    with pytest.raises(ValueError, match="^path length must be nonnegative$"):
        Path(("chain",), 0, 1)._replace(length=-1)


NOT_INTS = [0.5, 2.0, "1", None, True]


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("field", ["source", "length"])
def test_path_refuses_a_non_integer_index(field, value):
    # a float or string index once built p[0.5,1] or failed with a
    # TypeError far from the call
    args = {"source": 0, "length": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        Path(("cycle", 4), **args)
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        Path(("chain",), **args)
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        cycle_path(4, args["source"], args["length"])


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
def test_cycle_kind_refuses_a_non_integer_length(value):
    with pytest.raises(ValueError, match="^n must be an int"):
        cycle_kind(value)


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
def test_enumerate_paths_refuses_a_non_integer_bound(value):
    # a float bound once died with a TypeError inside range, and True
    # enumerated the paths of length at most 1
    for kind in (cycle_kind(3), chain_kind()):
        with pytest.raises(ValueError, match="^max_len must be an int"):
            enumerate_paths(kind, value, window=(-1, 1))


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("end", ["start", "end"])
def test_enumerate_paths_refuses_a_non_integer_window_end(end, value):
    window = (value, 1) if end == "start" else (-1, value)
    with pytest.raises(ValueError, match=f"^window {end} must be an int"):
        enumerate_paths(chain_kind(), 1, window=window)
    # a cycle has no window to check
    assert len(enumerate_paths(cycle_kind(3), 1, window=window)) == 6

import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

import delmenu.model as model_mod
from delmenu import (
    CapExceededError,
    Graph,
    InvalidInstanceError,
    PartitionInstance,
    brute_force_opt,
    has_partition,
    min_vertex_cover,
    minimal_valid_m,
    parse_graph,
    reduce_integer_partition,
    reduce_vertex_cover,
    xnum,
)

from conftest import stack_depth

TRIANGLE = Graph(3, ((1, 2), (2, 3), (1, 3)))
SINGLE_EDGE = Graph(2, ((1, 2),))
PATH4 = Graph(4, ((1, 2), (2, 3), (3, 4)))
CYCLE5 = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
EDGELESS2 = Graph(2, ())


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(InvalidInstanceError):
        Graph(2, ((1, 1),))
    with pytest.raises(InvalidInstanceError):
        Graph(2, ((1, 2), (2, 1)))
    with pytest.raises(InvalidInstanceError):
        Graph(2, ((1, 3),))


def test_parse_graph():
    g = parse_graph("# a comment\n1 2\n\n2 3\n")
    assert g == Graph(3, ((1, 2), (2, 3)))
    assert parse_graph("1 2\n", vertices=4).vertices == 4
    with pytest.raises(InvalidInstanceError, match="line 1"):
        parse_graph("1 2 3\n")
    with pytest.raises(InvalidInstanceError):
        parse_graph("")


# ---------------------------------------------------------------------------
# Vertex-cover oracle
# ---------------------------------------------------------------------------


def brute_cover(g: Graph) -> int:
    best = g.vertices
    for size in range(g.vertices + 1):
        for combo in combinations(range(1, g.vertices + 1), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return size
    return best


def test_min_vertex_cover_known():
    assert min_vertex_cover(TRIANGLE) == 2
    assert min_vertex_cover(EDGELESS2) == 0
    assert min_vertex_cover(PATH4) == 2
    assert min_vertex_cover(SINGLE_EDGE) == 1
    assert min_vertex_cover(CYCLE5) == 3


def test_min_vertex_cover_random_vs_oracle():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 0.8, 0.95, 1.0))
        possible = list(combinations(range(1, n + 1), 2))
        edges = tuple(e for e in possible if rng.random() < density)
        g = Graph(n, edges)
        assert min_vertex_cover(g) == brute_cover(g)


def test_min_vertex_cover_complete_graph_and_cap():
    # No branch beats the starting bound n - 1 on a complete graph.
    for n in range(1, 21):
        assert min_vertex_cover(Graph(n, tuple(combinations(range(1, n + 1), 2)))) == n - 1
    with pytest.raises(CapExceededError, match="graph has 7 vertices, cap is 6"):
        min_vertex_cover(Graph(7, ((1, 2),)), cap_n=6)


def test_min_vertex_cover_prunes_disjoint_edges_with_the_matching_bound():
    # Without a lower bound every disjoint edge doubles the walk: 16 edges
    # took about 0.4 s and 100 edges more than 100 s.
    graph = Graph(200, tuple((2 * i + 1, 2 * i + 2) for i in range(100)))
    start = time.perf_counter()
    assert min_vertex_cover(graph, cap_n=3000) == 100
    assert time.perf_counter() - start < 1


def test_min_vertex_cover_searches_deeper_than_the_recursion_limit():
    # Disjoint edges: one level per vertex.  The limit is lowered below the
    # edge count, and the walk, which keeps its own stack, still finds the cover.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        edges = sys.getrecursionlimit() + 1
        graph = Graph(2 * edges, tuple((2 * i + 1, 2 * i + 2) for i in range(edges)))
        cover = min_vertex_cover(graph, cap_n=4 * edges)
    finally:
        sys.setrecursionlimit(limit)
    assert cover == edges


# ---------------------------------------------------------------------------
# Vertex-cover reduction
# ---------------------------------------------------------------------------


def test_reduce_vertex_cover_refuses_an_instance_over_the_value_cap():
    # 1,100 disjoint edges: 3,300 profiles of 2,201 values, a 465 MB file.
    graph = Graph(2200, tuple((2 * i + 1, 2 * i + 2) for i in range(1100)))
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="3300 profiles of 2201 values exceeds the cap"):
        reduce_vertex_cover(graph)
    assert time.perf_counter() - start < 1


def test_reduction_shape():
    inst = reduce_vertex_cover(TRIANGLE)
    assert inst.n == 4
    assert len(inst.profiles) == 6
    assert inst.outside_bias is None
    assert inst.biases == (xnum(0), xnum(0), xnum(0), xnum(-2))
    assert all(p.values[3] == xnum(3) for p in inst.profiles)
    assert all(p.prob == Fraction(1, 6) for p in inst.profiles)


@pytest.mark.parametrize(
    "graph",
    [TRIANGLE, SINGLE_EDGE, PATH4, CYCLE5, EDGELESS2],
    ids=["triangle", "edge", "path4", "cycle5", "edgeless"],
)
def test_vertex_cover_identity(graph):
    inst = reduce_vertex_cover(graph)
    menu, value = brute_force_opt(inst)
    n, m = graph.vertices, len(graph.edges)
    k = min_vertex_cover(graph)
    assert value.std == Fraction(5 * m + 3 * n - k, m + n)
    assert value.inf == 0
    assert inst.n in menu  # the default action is always worth including


def test_vertex_cover_known_optima():
    _, triangle = brute_force_opt(reduce_vertex_cover(TRIANGLE))
    assert triangle.std == Fraction(22, 6)
    _, edge = brute_force_opt(reduce_vertex_cover(SINGLE_EDGE))
    assert edge.std == Fraction(10, 3)
    menu, edgeless = brute_force_opt(reduce_vertex_cover(EDGELESS2))
    assert edgeless.std == Fraction(3)
    assert menu == frozenset({3})  # default action alone: the empty cover


# ---------------------------------------------------------------------------
# Partition oracle
# ---------------------------------------------------------------------------


def test_has_partition_examples():
    assert has_partition(PartitionInstance((1, 1, 2)))
    assert not has_partition(PartitionInstance((1, 1, 3)))
    assert has_partition(PartitionInstance((2, 2)))
    assert not has_partition(PartitionInstance((1,)))


def test_has_partition_random_vs_enumeration():
    rng = random.Random(8)
    for _ in range(40):
        values = tuple(rng.randint(1, 12) for _ in range(8))
        p = PartitionInstance(values)
        total = sum(values)
        oracle = total % 2 == 0 and any(
            sum(combo) * 2 == total
            for size in range(len(values) + 1)
            for combo in combinations(values, size)
        )
        assert has_partition(p) == oracle


def test_partition_instance_validation():
    with pytest.raises(InvalidInstanceError):
        PartitionInstance(())
    with pytest.raises(InvalidInstanceError):
        PartitionInstance((1, 0))


# ---------------------------------------------------------------------------
# Partition reduction
# ---------------------------------------------------------------------------


def test_partition_reduction_probabilities_form_distribution():
    p = PartitionInstance((1, 1, 2))
    inst, _ = reduce_integer_partition(p, minimal_valid_m(p))
    assert inst.n == 4
    for action in inst.actions:
        assert sum(prob for _, prob in action.support) == 1
        assert all(prob > 0 for _, prob in action.support)


def test_partition_reduction_refuses_an_instance_over_the_value_cap(monkeypatch):
    # n integers make 3n + 2 values: 11 for three, 14 for four.
    monkeypatch.setattr(model_mod, "VALUE_CAP", 13)
    three, four = PartitionInstance((1, 1, 2)), PartitionInstance((1, 1, 1, 1))
    assert reduce_integer_partition(three, minimal_valid_m(three))[0].n == 4
    with pytest.raises(CapExceededError, match="instance of 14 values exceeds the cap of 13"):
        reduce_integer_partition(four, minimal_valid_m(four))


def test_partition_reduction_m_too_small():
    p = PartitionInstance((1, 1, 2))
    with pytest.raises(InvalidInstanceError, match=r"128\*n\^3\*c_max\^3"):
        reduce_integer_partition(p, 100)
    with pytest.raises(InvalidInstanceError, match=r"2\*C"):
        reduce_integer_partition(PartitionInstance((1,)), 1)


@pytest.mark.parametrize("values", [(1,), (1, 1, 2), (3, 1, 1, 2, 2, 1), (7, 2), (12, 6, 6, 5)])
def test_minimal_valid_m_is_the_smallest_accepted_m(values):
    # The cubic bound exceeds 4*n*c_max, which is at least 2*C, so it binds.
    p = PartitionInstance(values)
    m = minimal_valid_m(p)
    assert m == 128 * len(values) ** 3 * max(values) ** 3
    assert reduce_integer_partition(p, m)[0].n == len(values) + 1
    binding = rf"M={m - 1} violates M >= 128\*n\^3\*c_max\^3 = {m}$"
    with pytest.raises(InvalidInstanceError, match=binding):
        reduce_integer_partition(p, m - 1)


@pytest.mark.parametrize(
    "values", [(1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 2), (1, 2), (1, 1, 1), (2, 3, 4, 1)]
)
def test_partition_decision_agreement(values):
    p = PartitionInstance(values)
    inst, threshold = reduce_integer_partition(p, minimal_valid_m(p))
    _, value = brute_force_opt(inst)
    assert (value.std >= threshold) == has_partition(p)


def test_partition_decision_strict_for_112_113():
    p_yes = PartitionInstance((1, 1, 2))
    inst, threshold = reduce_integer_partition(p_yes, minimal_valid_m(p_yes))
    _, value = brute_force_opt(inst)
    assert value.std >= threshold
    p_no = PartitionInstance((1, 1, 3))
    inst, threshold = reduce_integer_partition(p_no, minimal_valid_m(p_no))
    _, value = brute_force_opt(inst)
    assert value.std < threshold


@pytest.mark.parametrize("size", [12, 14, 16, 18])
def test_partition_decision_with_repeated_integers(size):
    # Equal integers are equal actions, one class of the independent search,
    # so its walk takes each class's lowest-indexed members: the optimal menu
    # holds, of each repeated integer, its first copies.
    rng = random.Random(size)
    for top in (4, 8):
        p = PartitionInstance(tuple(rng.randint(1, top) for _ in range(size)))
        inst, threshold = reduce_integer_partition(p, minimal_valid_m(p))
        menu, value = brute_force_opt(inst)
        assert (value.std >= threshold) == has_partition(p)
        assert size + 1 in menu
        chosen = sorted(menu - {size + 1})
        for c in set(p.values):
            copies = [i for i, v in enumerate(p.values, start=1) if v == c]
            taken = [i for i in chosen if p.values[i - 1] == c]
            assert taken == copies[: len(taken)]
        if has_partition(p):
            assert 2 * sum(p.values[i - 1] for i in chosen) == p.total

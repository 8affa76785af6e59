"""Graph structure, indicator functions, and segregation metrics."""

import numpy as np
import pytest

from edgegame.graph import (
    DirectedGraph,
    inter_edge_count,
    segregation_measure,
    segregation_value,
    two_hop_support,
)
from edgegame.recommender import recommendation_probability

# Independent oracles: work from a raw edge set and the index-range
# community rule, never through the graph's adjacency.


def oracle_d(edges, n, i, j):
    return 1 if (i, j) in edges and (i < n) != (j < n) else 0


def oracle_s(edges, n, i, j):
    return 1 if (i, j) in edges and (i < n) == (j < n) else 0


def oracle_two_hop(edges, n, i, j):
    total = 0
    for jp in range(2 * n):
        if jp in (i, j):
            continue
        total += (oracle_d(edges, n, i, jp) + oracle_d(edges, n, jp, i)) * oracle_s(
            edges, n, jp, j
        )
    return total


def cross_mask(n):
    blue = np.arange(2 * n) >= n
    return blue[:, None] != blue[None, :]


def d_matrix(g):
    """Cross-edge indicators d_ij: the cross blocks of the adjacency."""
    return g.adj & cross_mask(g.n_per_community)


def s_matrix(g):
    """In-group edge indicators s_ij: the diagonal blocks of the adjacency."""
    return g.adj & ~cross_mask(g.n_per_community)


def support(g, i, j):
    return int(two_hop_support(g.adj, g.n_per_community)[i, j])


def random_graph(n, density, rng):
    edges = set()
    for u in range(2 * n):
        for v in range(2 * n):
            if u != v and rng.random() < density:
                edges.add((u, v))
    return edges, DirectedGraph(n, edges)


def test_d_indicator_examples():
    n = 2  # r0=0, r1=1, b0=2, b1=3
    g = DirectedGraph(n, [(0, 2)])
    assert d_matrix(g)[0, 2]
    g2 = DirectedGraph(n, [(0, 1)])
    assert not d_matrix(g2)[0, 1]
    g3 = DirectedGraph(n)
    assert not d_matrix(g3)[0, 2]


def test_s_indicator_examples():
    n = 2
    g = DirectedGraph(n, [(0, 1)])
    assert s_matrix(g)[0, 1]
    g2 = DirectedGraph(n, [(0, 2)])
    assert not s_matrix(g2)[0, 2]
    # directed: the reverse edge is absent
    assert not s_matrix(g)[1, 0]


def test_indicator_argument_errors():
    g = DirectedGraph(2)
    with pytest.raises(ValueError):
        g.has_edge(0, 4)
    with pytest.raises(ValueError):
        g.has_edge(-1, 0)
    with pytest.raises(ValueError):
        g.community(4)
    with pytest.raises(ValueError):
        g.add_edges([(1, 1)])


def test_add_edges_counts_new_edges():
    g = DirectedGraph(3, [(0, 1)])
    # an existing edge and a repeated pair are not new
    assert g.add_edges([(0, 1), (1, 4), (1, 4), (5, 0)]) == 2
    assert g.sorted_edges() == [(0, 1), (1, 4), (5, 0)]
    assert g.add_edges(np.array([[1, 4], [2, 3]])) == 1
    assert g.add_edges((u, 0) for u in (3, 4)) == 2
    assert g.add_edges([]) == 0
    assert g.add_edges(np.empty((0, 2), dtype=np.intp)) == 0
    assert g.sorted_edges() == [(0, 1), (1, 4), (2, 3), (3, 0), (4, 0), (5, 0)]


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 6)], "node 6 out of range for 2N=6"),
        ([(1, 2), (-1, 2)], "node -1 out of range for 2N=6"),
        ([(1, 2), (2, 2)], "self-loops are not allowed"),
        ([(0, 1, 2)], r"pairs must be \(u, v\) pairs"),
    ],
)
def test_add_edges_errors_insert_nothing(pairs, message):
    g = DirectedGraph(3, [(0, 3)])
    with pytest.raises(ValueError, match=message):
        g.add_edges(pairs)
    assert g.sorted_edges() == [(0, 3)]


def test_inter_edge_count_examples():
    n = 2
    g = DirectedGraph(n, [(0, 2), (2, 0), (0, 1)])
    assert inter_edge_count(g) == 2
    assert inter_edge_count(DirectedGraph(n)) == 0
    complete_bipartite = [(r, b) for r in range(2) for b in range(2, 4)]
    complete_bipartite += [(b, r) for r in range(2) for b in range(2, 4)]
    assert inter_edge_count(DirectedGraph(n, complete_bipartite)) == 8


def test_segregation_examples():
    n = 2
    assert segregation_measure(DirectedGraph(n, [(0, 1), (1, 0)])) == 1.0
    complete_bipartite = [(r, b) for r in range(2) for b in range(2, 4)]
    complete_bipartite += [(b, r) for r in range(2) for b in range(2, 4)]
    assert segregation_measure(DirectedGraph(n, complete_bipartite)) == 0.0
    assert segregation_measure(DirectedGraph(n, [(0, 2), (2, 0)])) == 0.75


def test_segregation_value_empty_community():
    assert segregation_value(0, 0, 5) == 1.0
    assert segregation_value(0, 5, 0) == 1.0
    with pytest.raises(ValueError):
        segregation_value(0, -1, 3)


def test_two_hop_example_graph():
    # n=4: r1=0, r2=1, b1=4, b2=5, b4=7; b2 and b4 follow b1, r2 follows r1,
    # r1 follows b1.
    g = DirectedGraph(4, [(4, 5), (4, 7), (0, 1), (4, 0)])
    assert support(g, 0, 5) == 1
    assert support(g, 0, 7) == 1
    assert support(g, 4, 1) == 1
    assert support(g, 5, 0) == 0


def test_two_hop_empty_and_disjoint_counts():
    assert support(DirectedGraph(3), 0, 4) == 0
    # j = 9 (blue), friends j' = 4..8 follow into j; i = 0 followed by 3 of
    # them, following 2 others: counts add to 5.
    n = 6
    edges = [(jp, 9) for jp in range(6, 11) if jp != 9]
    edges += [(jp, 9) for jp in (6, 7)]  # duplicates ignored by set semantics
    edges = set(edges)
    edges |= {(0, 6), (0, 7), (0, 8)}  # these j' follow i=0
    edges |= {(10, 0), (11, 0)}  # i follows these j'
    edges.add((11, 9))
    g = DirectedGraph(n, edges)
    assert support(g, 0, 9) == 5


def test_two_hop_support_is_zero_in_group():
    # a dense graph: every in-group pair still has zero support, and asking
    # for its proposal probability is an error
    n = 3
    g = DirectedGraph(n, [(u, v) for u in range(2 * n) for v in range(2 * n) if u != v])
    assert not np.any(two_hop_support(g.adj, n)[~cross_mask(n)])
    g = DirectedGraph(n)
    with pytest.raises(ValueError):
        recommendation_probability(g, 0, 1)


def test_two_hop_double_counts_mutual_links():
    # j' both follows i and is followed by i: contributes 2.
    g = DirectedGraph(2, [(0, 2), (2, 0), (2, 3)])
    assert support(g, 0, 3) == 2


def test_two_hop_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 5))  # 2n <= 8
        edges, g = random_graph(n, float(rng.random()) * 0.7, rng)
        got = two_hop_support(g.adj, n)
        for i in range(2 * n):
            for j in range(2 * n):
                if (i < n) == (j < n):
                    assert got[i, j] == 0
                else:
                    assert got[i, j] == oracle_two_hop(edges, n, i, j)
        # the same support as one dense matrix product
        d = d_matrix(g).astype(np.int64)
        assert np.array_equal(got, (d + d.T) @ s_matrix(g))


def test_inter_count_matches_indicator_sum():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))  # 2n <= 12
        edges, g = random_graph(n, float(rng.random()) * 0.6, rng)
        total = sum(
            oracle_d(edges, n, i, j)
            for i in range(2 * n)
            for j in range(2 * n)
            if i != j
        )
        assert inter_edge_count(g) == total


def test_indicators_are_exclusive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        edges, g = random_graph(n, 0.5, rng)
        d, s = d_matrix(g), s_matrix(g)
        assert not np.any(d & s)
        assert np.count_nonzero(d | s) == g.num_edges
        for i in range(2 * n):
            for j in range(2 * n):
                assert d[i, j] == oracle_d(edges, n, i, j)
                assert s[i, j] == oracle_s(edges, n, i, j)


def test_segregation_monotonicity_under_edge_addition():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        _, g = random_graph(n, 0.3, rng)
        s0 = segregation_measure(g)
        assert 0.0 <= s0 <= 1.0
        u = int(rng.integers(0, n))
        v = int(rng.integers(n, 2 * n))
        g.add_edges([(u, v)])
        assert segregation_measure(g) <= s0  # new cross edge
        s1 = segregation_measure(g)
        w = int(rng.integers(0, n))
        x = (w + 1) % n
        g.add_edges([(w, x)])
        assert segregation_measure(g) == s1  # in-group edge changes nothing


def test_graph_validation():
    with pytest.raises(ValueError):
        DirectedGraph(0)
    g = DirectedGraph(2)
    with pytest.raises(ValueError):
        g.add_edges([(1, 1)])
    with pytest.raises(ValueError):
        g.add_edges([(0, 4)])
    assert g.add_edges([(0, 1)]) == 1
    assert g.add_edges([(0, 1)]) == 0  # duplicate ignored
    assert g.num_edges == 1


def test_edge_cap():
    n = 2
    edges = [(u, v) for u in range(4) for v in range(4) if u != v]
    g = DirectedGraph(n, edges)
    assert g.num_edges == 2 * n * (2 * n - 1)


def test_adjacency_round_trip():
    rng = np.random.default_rng(3)
    _, g = random_graph(3, 0.4, rng)
    back = DirectedGraph.from_adjacency(g.adj.astype(np.int8), 3)
    assert back.adj.dtype == bool
    assert back.sorted_edges() == g.sorted_edges()
    assert back.inter_edges == g.inter_edges
    # from_adjacency copies: the source array and the graph stay independent
    src = g.adj.copy()
    copy = DirectedGraph.from_adjacency(src, 3)
    copy.adj[:] = ~copy.adj
    assert np.array_equal(src, g.adj)
    with pytest.raises(ValueError):
        DirectedGraph.from_adjacency(np.eye(6, dtype=bool), 3)
    with pytest.raises(ValueError):
        DirectedGraph.from_adjacency(np.zeros((5, 5), dtype=bool), 3)

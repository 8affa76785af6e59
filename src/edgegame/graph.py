"""Directed two-community graph with homophily/segregation metrics.

Nodes are integers. For a graph with ``n`` users per community, indices
``0 .. n-1`` are the red community and ``n .. 2n-1`` the blue community;
the labels are fixed for the lifetime of the graph. An edge ``(u, v)``
points from the friend ``u`` to the follower ``v``, i.e. it records that
``v`` follows ``u``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

RED = 0
BLUE = 1


def segregation_value(inter_edges: int, n_red: int, n_blue: int) -> float:
    """Segregation score from an inter-community edge count.

    Returns ``1 - inter_edges / (2 * n_red * n_blue)``: 1.0 means no
    cross-community edges at all, 0.0 means every possible directed
    cross-community edge exists. An empty community counts as fully
    segregated (1.0); the opinion model hits that case when one opinion
    dies out.
    """
    if n_red < 0 or n_blue < 0:
        raise ValueError("community sizes must be non-negative")
    if n_red == 0 or n_blue == 0:
        return 1.0
    return 1.0 - inter_edges / (2.0 * n_red * n_blue)


class DirectedGraph:
    """Loop-free directed graph over two equal-size communities.

    The graph is its dense boolean adjacency ``adj`` (2n x 2n,
    ``adj[u, v]`` is the edge u -> v). In-group blocks hold about p n^2
    edges by design, so a dense array costs no more than adjacency lists,
    and it feeds the numpy kernels directly. Instances are treated as
    immutable snapshots while a simulation step reads them; mutation
    (``add_edges``) is reserved for the single writer between steps.
    """

    __slots__ = ("_n", "adj")

    def __init__(self, n_per_community: int, edges: Iterable[tuple[int, int]] = ()):
        if n_per_community < 1:
            raise ValueError("n_per_community must be >= 1")
        self._n = int(n_per_community)
        self.adj = np.zeros((2 * self._n, 2 * self._n), dtype=bool)
        self.add_edges(edges)

    @property
    def n_per_community(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adj))

    @property
    def inter_edges(self) -> int:
        n = self._n
        return int(np.count_nonzero(self.adj[:n, n:]) + np.count_nonzero(self.adj[n:, :n]))

    def community(self, v: int) -> int:
        """RED for indices below ``n_per_community``, BLUE above."""
        self._check_node(v)
        return RED if v < self._n else BLUE

    def _check_node(self, v: int) -> None:
        if not 0 <= v < 2 * self._n:
            raise ValueError(f"node {v} out of range for 2N={2 * self._n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return bool(self.adj[u, v])

    def add_edges(self, pairs: Iterable[tuple[int, int]] | np.ndarray) -> int:
        """Insert every pair (u, v) of ``pairs``; returns how many were new.

        Accepts pairs or a (k, 2) integer array. Every pair is checked (both
        nodes in range, no self-loop) before any is inserted, so a bad pair
        inserts nothing.
        """
        uv = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.intp)
        if uv.size == 0:
            return 0
        if uv.ndim != 2 or uv.shape[1] != 2:
            raise ValueError("pairs must be (u, v) pairs")
        self._check_node(int(uv.min()))
        self._check_node(int(uv.max()))
        u, v = uv.T
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        before = np.count_nonzero(self.adj)
        self.adj[u, v] = True
        return np.count_nonzero(self.adj) - before

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Every edge as a (src, dst) pair, in lexicographic order."""
        src, dst = np.nonzero(self.adj)
        return list(zip(src.tolist(), dst.tolist()))

    @classmethod
    def from_adjacency(cls, adj: np.ndarray, n_per_community: int) -> "DirectedGraph":
        """Copy of a 2n x 2n boolean/0-1 adjacency matrix (adj[u, v] = edge u->v)."""
        size = 2 * int(n_per_community)
        if adj.shape != (size, size):
            raise ValueError(f"adjacency must be {size}x{size}, got {adj.shape}")
        if np.any(np.diagonal(adj)):
            raise ValueError("adjacency has self-loops on the diagonal")
        g = cls.__new__(cls)
        g._n = int(n_per_community)
        g.adj = np.array(adj, dtype=bool)
        return g

    def __repr__(self) -> str:
        return f"DirectedGraph(n_per_community={self._n}, edges={self.num_edges})"


def inter_edge_count(g: DirectedGraph) -> int:
    """Number of directed edges whose endpoints are in different communities."""
    return g.inter_edges


def segregation_measure(g: DirectedGraph) -> float:
    """Segregation of the graph: 1 minus realized over maximal cross edges."""
    return segregation_value(g.inter_edges, g.n_per_community, g.n_per_community)


def two_hop_support(adj: np.ndarray, n: int) -> np.ndarray:
    """Two-hop support of every ordered pair, from a 2n x 2n adjacency.

    For i and j in different communities, ``support[i, j]`` counts the
    in-group friends j' of j (edge (j', j)) once for each direction in
    which j' is linked with i: once if j' follows i (edge (i, j')) and
    once if i follows j' (edge (j', i)). In-group pairs get 0.

    Each cross block adds, per row i, the in-group adjacency rows of i's
    cross contacts, weighted 1 or 2. The sum is integer-exact, and O(n^2)
    when cross contacts are O(n) in total, as in sampled snapshots.
    """
    support = np.zeros(adj.shape, dtype=np.int64)
    red, blue = slice(0, n), slice(n, 2 * n)
    for own, other in ((red, blue), (blue, red)):
        weight = adj[own, other].astype(np.int64) + adj[other, own].T
        rows, contacts = np.nonzero(weight)
        if rows.size == 0:
            continue
        terms = adj[other, other][contacts] * weight[rows, contacts][:, None]
        first = np.ones(rows.size, dtype=bool)  # rows come sorted; mark where each starts
        first[1:] = rows[1:] != rows[:-1]
        starts = first.nonzero()[0]
        support[own, other][rows[starts]] = np.add.reduceat(terms, starts, axis=0)
    return support

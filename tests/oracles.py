"""Oracles and test doubles shared by the test modules, each defined once.

The indicator oracles work from a raw edge set and the index-range
community rule, never through an adjacency.
"""

import numpy as np

from edgegame.blockmodel import StrategyPair, block_matrix, sample_adjacency
from edgegame.dynamics import STACK_CELLS
from edgegame.game import realized_utility_rec_all
from edgegame.graph import two_hop_support


def oracle_d(edges, n, i, j):
    """Cross-edge indicator d_ij: the edge (i, j) exists and crosses the communities."""
    return 1 if (i, j) in edges and (i < n) != (j < n) else 0


def oracle_s(edges, n, i, j):
    """In-group edge indicator s_ij: the edge (i, j) exists within one community."""
    return 1 if (i, j) in edges and (i < n) == (j < n) else 0


def support(g, i, j):
    """Two-hop support of the pair (i, j) of a ``DirectedGraph``."""
    return int(two_hop_support(g.adj, g.n_per_community)[i, j])


def one_buffer_adjacency(table, n, rng):
    """``sample_adjacency`` drawn in one float buffer, for a (2, 2) table or a stack of them.

    The uniforms of all cells, diagonal included, in one (..., 2, n, 2, n)
    draw, each against its blocks' probability; then the diagonal is cleared.
    """
    lead = table.shape[:-2]
    adj = rng.random(lead + (2, n, 2, n)) < table[..., :, None, :, None]
    adj = adj.reshape(lead + (2 * n, 2 * n))
    adj[..., np.arange(2 * n), np.arange(2 * n)] = False
    return adj


class RecordingGenerator:
    """Passes ``random(size)`` calls on to a generator and records each size."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def red_snapshot_means(s: StrategyPair, c: float, n: int, snapshots: int, rng) -> np.ndarray:
    """Red's mean realized utility in each of ``snapshots`` sampled snapshots.

    Snapshots are drawn and scored in stacks of the protocols' size, which
    give the same draws and means as one snapshot at a time.
    """
    m, stack = block_matrix(s, n), STACK_CELLS // (4 * n * n)
    return np.concatenate([
        realized_utility_rec_all(
            sample_adjacency(np.broadcast_to(m, (min(stack, snapshots - k), 2, 2)), n, rng), n, c
        )[:, :n].mean(axis=1)
        for k in range(0, snapshots, stack)
    ])

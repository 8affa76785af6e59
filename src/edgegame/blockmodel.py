"""Two-block directed random-graph sampling driven by the players' strategies.

The strategy pair (p_r, p_b) gives the in-group follow probabilities. A
user follows someone in the other community with probability (1 - p)/n,
where p is its own community's in-group probability, so cross edges stay
O(n) while in-group edges stay O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph


@dataclass(frozen=True)
class StrategyPair:
    """In-group follow probabilities of the red and blue players, in (0, 1]."""

    p_r: float
    p_b: float

    def __post_init__(self):
        for name, p in (("p_r", self.p_r), ("p_b", self.p_b)):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {p}")

    def swapped(self) -> "StrategyPair":
        return StrategyPair(self.p_b, self.p_r)


@dataclass(frozen=True)
class BlockProbabilityMatrix:
    """Follow probabilities keyed by (follower community, friend community).

    ``p_rb`` is the probability that a red user follows a blue user, and
    so on. Because an edge runs friend -> follower, the probability of an
    edge (u, v) is the entry for (community(v), community(u)).
    """

    p_rr: float
    p_rb: float
    p_br: float
    p_bb: float

    def __post_init__(self):
        for name in ("p_rr", "p_rb", "p_br", "p_bb"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


def block_matrix(s: StrategyPair, n: int) -> BlockProbabilityMatrix:
    """Block probabilities induced by a strategy pair at community size n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return BlockProbabilityMatrix(
        p_rr=s.p_r,
        p_rb=(1.0 - s.p_r) / n,
        p_br=(1.0 - s.p_b) / n,
        p_bb=s.p_b,
    )


def sample_adjacency(m: BlockProbabilityMatrix, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a boolean adjacency matrix; every ordered pair is independent.

    One uniform is consumed per matrix cell in row-major (lexicographic)
    order, diagonal included, so a given generator state always yields the
    same graph. The uniforms are drawn as a (friend community, friend,
    follower community, follower) array: its C order is the row-major order
    of the 2n x 2n matrix, so each uniform meets the probability of its own
    cell, and the 2 x 2 table broadcasts over the blocks without being
    expanded to 2n x 2n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # The follower's community picks the probability: an edge (red, blue)
    # means the blue endpoint follows the red one, so it uses ``p_br``.
    table = np.array([[m.p_rr, m.p_br], [m.p_rb, m.p_bb]])
    adj = (rng.random((2, n, 2, n)) < table[:, None, :, None]).reshape(2 * n, 2 * n)
    np.fill_diagonal(adj, False)
    return adj


def sample_snapshot(m: BlockProbabilityMatrix, n: int, rng: np.random.Generator) -> DirectedGraph:
    """Sample one graph snapshot from the block probabilities."""
    return DirectedGraph.from_adjacency(sample_adjacency(m, n, rng), n)

"""Two-block directed random-graph sampling driven by the players' strategies.

The strategy pair (p_r, p_b) gives the in-group follow probabilities. A
user follows someone in the other community with probability (1 - p)/n,
where p is its own community's in-group probability, so cross edges stay
O(n) while in-group edges stay O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import integer, probability
from .graph import DirectedGraph

# Most cells of one piece of a draw (see sample_adjacency), so that its
# float buffer stays at 128 KB. On layerbench's protocol-n200 workload,
# whose next stack is drawn while the current one is passed, that keeps
# peak RSS at 41.5 MB against 42.0 MB with pieces of 2**16 cells and
# 40.9 MB for one thread (x86-64, numpy 2.4.6).
PIECE_CELLS = 2**14


@dataclass(frozen=True)
class StrategyPair:
    """In-group follow probabilities of the red and blue players, in (0, 1]."""

    p_r: float
    p_b: float

    def __post_init__(self):
        probability("p_r", self.p_r, positive=True)
        probability("p_b", self.p_b, positive=True)


def block_matrix(s: StrategyPair, n: int) -> np.ndarray:
    """The (2, 2) table of follow probabilities induced by ``s`` at community size n.

    Indexed [friend community, follower community], red = 0 and blue = 1:
    an edge runs friend -> follower, and the follower's own strategy sets
    its probability, so ``[0, 1]`` is (1 - p_b)/n, the chance that a blue
    user follows a given red user.
    """
    integer("n", n, 1)
    return np.array([[s.p_r, (1.0 - s.p_b) / n], [(1.0 - s.p_r) / n, s.p_b]])


def sample_adjacency(table: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a boolean adjacency matrix; every ordered pair is independent.

    ``table`` is indexed [friend community, follower community], as an
    edge runs friend -> follower. One uniform is consumed per matrix cell
    in row-major (lexicographic) order, diagonal included, so a given
    generator state always yields the same graph. The uniforms fill a
    (friend community, friend, follower community, follower) array: its C
    order is the row-major order of the 2n x 2n matrix. Each friend row
    meets its community's two probabilities, one per follower community,
    so each uniform meets the probability of its own cell without the table
    being expanded to 2n x 2n.

    A (k, 2, 2) stack of tables gives a (k, 2n, 2n) stack of snapshots
    from one draw. Its C order puts each snapshot's uniforms after the
    previous one's, so the stack equals k calls with one table each, and
    the generator ends where those calls would leave it.

    The uniforms are drawn in pieces of at most ``PIECE_CELLS`` cells (one
    row where a row is longer): runs of whole friend rows, counted over the
    whole stack, so a piece may run from one snapshot into the next. The
    pieces are drawn and compared in turn, in the order of one buffer, so
    the snapshots and the generator's end state do not depend on the piece
    size, and the float buffer stays small however large the draw.
    """
    integer("n", n, 1)
    lead = table.shape[:-2]
    adj = np.empty(lead + (2, n, 2, n), dtype=bool)
    rows = adj.reshape(-1, 2, n)  # one friend row: (follower community, follower)
    probs = np.repeat(table.reshape(-1, 2, 1), n, axis=0)  # each friend row's two blocks
    step = max(1, PIECE_CELLS // (2 * n))
    for i in range(0, len(rows), step):
        piece = rows[i : i + step]
        np.less(rng.random(piece.shape), probs[i : i + step], out=piece)
    adj.reshape(lead + (4 * n * n,))[..., :: 2 * n + 1] = False  # the diagonal
    return adj.reshape(lead + (2 * n, 2 * n))


def sample_snapshot(table: np.ndarray, n: int, rng: np.random.Generator) -> DirectedGraph:
    """Sample one graph snapshot from the block table."""
    return DirectedGraph.from_adjacency(sample_adjacency(table, n, rng), n)

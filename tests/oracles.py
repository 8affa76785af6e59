"""Oracles and test doubles shared by the test modules, each defined once.

The indicator oracles work from a raw edge set and the index-range
community rule, never through an adjacency.
"""

import numpy as np

from edgegame.blockmodel import StrategyPair, block_matrix, sample_adjacency, sample_snapshot
from edgegame.checks import real
from edgegame.dynamics import STACK_CELLS, SemiMarkovChain, TraceRecord, step_semi_markov
from edgegame.game import PlayerRole, best_response, expected_utility_rec, realized_utility_rec_all
from edgegame.graph import inter_edge_count, segregation_measure, two_hop_support
from edgegame.recommender import run_recommender
from edgegame.seeding import substream


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


SUBSTREAMS = ("init", "graph", "recommend", "chain")


def reference_run_protocol(cfg):
    """The protocol one step at a time: sample a snapshot, pass over it, add the accepted pairs, count.

    Returns the records and the run's generator of each substream label.
    """
    rngs = {label: substream(cfg.seed, label) for label in SUBSTREAMS}
    p_r = 1.0 - rngs["init"].random()
    p_b = 1.0 - rngs["init"].random()
    chain = cfg.acceptance if isinstance(cfg.acceptance, SemiMarkovChain) else None
    state = chain.initial_state if chain is not None else None
    n = cfg.n_per_community
    records = []
    for t in range(cfg.horizon + 1):
        acceptance = cfg.acceptance if chain is None else chain.states[state]
        if t >= 1:
            opponent = p_b if t % 2 == 1 else p_r
            response = 1.0 if acceptance is None else best_response(acceptance, opponent)
            if t % 2 == 1:
                p_r = response
            else:
                p_b = response
        g = sample_snapshot(block_matrix(StrategyPair(p_r, p_b), n), n, rngs["graph"])
        recommended = accepted = None
        if acceptance is not None:
            outcome = run_recommender(g, acceptance, rngs["recommend"])
            g.add_edges(outcome.accepted)
            recommended, accepted = len(outcome.recommended), len(outcome.accepted)
        records.append(TraceRecord(t, p_r, p_b, acceptance, segregation_measure(g.adj, n),
                                   inter_edge_count(g.adj, n), recommended, accepted))
        if chain is not None:
            state = step_semi_markov(chain, state, t, rngs["chain"])
    return records, rngs


def cross_partial(acceptance: float, s: StrategyPair, h: float) -> float:
    """Central finite-difference estimate of d2 U_red / (d p_r d p_b).

    The expected utility is quadratic, so for any valid step this equals
    minus the acceptance probability up to rounding. The step ``h`` is a
    positive real number, and all four stencil points must stay inside
    (0, 1]; ``StrategyPair`` rejects any other.
    """
    if not real("h", h) > 0.0:  # NaN fails this test
        raise ValueError(f"h must be positive, got {h}")

    def u(pr: float, pb: float) -> float:
        return expected_utility_rec(StrategyPair(pr, pb), acceptance, PlayerRole.RED)

    return (
        u(s.p_r + h, s.p_b + h)
        - u(s.p_r + h, s.p_b - h)
        - u(s.p_r - h, s.p_b + h)
        + u(s.p_r - h, s.p_b - h)
    ) / (4.0 * h * h)

"""Cross-community link recommender weighted by shared-contact support.

For every ordered cross-community pair (i, j) without an existing edge,
the recommender proposes "j should follow i" with probability equal to
the two-hop support between i and j divided by n - 1 (clamped to 1); a
proposal converts into an edge with the configured acceptance
probability. One pass touches all 2 n^2 cross pairs and is O(n^2) when
cross links are O(n) total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, two_hop_support


@dataclass(frozen=True)
class RecommenderConfig:
    """Probability that a proposed link is accepted by its target."""

    acceptance_probability: float

    def __post_init__(self):
        if not 0.0 <= self.acceptance_probability <= 1.0:
            raise ValueError(
                f"acceptance_probability must be in [0, 1], got {self.acceptance_probability}"
            )


@dataclass(frozen=True)
class RecommendationOutcome:
    """Proposed and accepted ordered pairs of one pass, in pass order."""

    recommended: tuple[tuple[int, int], ...]
    accepted: tuple[tuple[int, int], ...]

    def dumps(self) -> str:
        lines = ["RECOMMENDED"]
        lines.extend(f"{u} {v}" for u, v in self.recommended)
        lines.append("ACCEPTED")
        lines.extend(f"{u} {v}" for u, v in self.accepted)
        return "\n".join(lines) + "\n"


def recommendation_probability(g: DirectedGraph, i: int, j: int) -> float:
    """Probability that the pass proposes the pair (i, j).

    Requires i, j in different communities and no existing edge (i, j);
    an existing edge means the pair is skipped, so asking for its
    probability is a contract violation. The two-hop support can exceed
    n - 1 (both link directions count), so the ratio is clamped to 1.
    """
    if g.community(i) == g.community(j):
        raise ValueError("recommendation_probability requires i, j in different communities")
    if g.has_edge(i, j):
        raise ValueError(f"edge ({i}, {j}) already exists; pair is never proposed")
    count = int(two_hop_support(g.adj, g.n_per_community)[i, j])
    if count == 0:
        return 0.0
    return min(1.0, count * (1.0 / (g.n_per_community - 1)))


def run_recommender(
    g: DirectedGraph, cfg: RecommenderConfig, rng: np.random.Generator
) -> RecommendationOutcome:
    """One full pass over all cross-community ordered pairs of ``g``.

    Pairs are visited in lexicographic (i, j) order and draws are consumed
    in that order (zero-support pairs consume none), so a seeded generator
    reproduces the outcome bit for bit. The pass reads a fixed snapshot:
    pairs accepted earlier in the pass do not feed later proposals. The
    caller applies ``accepted`` to the graph.
    """
    n = g.n_per_community
    support = two_hop_support(g.adj, n)
    # Row-major nonzero order is the lexicographic pass order.
    rows, cols = np.nonzero((support > 0) & ~g.adj)
    if rows.size == 0:
        return RecommendationOutcome((), ())
    probs = np.minimum(support[rows, cols] * (1.0 / (n - 1)), 1.0)
    accept_p = cfg.acceptance_probability
    rand = rng.random
    recommended: list[tuple[int, int]] = []
    accepted: list[tuple[int, int]] = []
    for i, j, p in zip(rows.tolist(), cols.tolist(), probs.tolist()):
        if rand() < p:
            recommended.append((i, j))
            if rand() < accept_p:
                accepted.append((i, j))
    return RecommendationOutcome(tuple(recommended), tuple(accepted))

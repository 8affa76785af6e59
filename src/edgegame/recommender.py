"""Cross-community link recommender weighted by shared-contact support.

For every ordered cross-community pair (i, j) without an existing edge,
the recommender proposes "j should follow i" with probability equal to
the two-hop support between i and j divided by n - 1 (clamped to 1); a
proposal converts into an edge with the acceptance probability c. One pass touches all 2 n^2 cross pairs and is O(n^2) when
cross links are O(n) total.

Draws. The pass visits the eligible pairs (nonzero support, no edge) in
lexicographic order. Each takes one uniform and is proposed if that is
below the pair's probability; a proposal takes the next uniform for its
acceptance. The pass draws these uniforms in buffers that never run past
the last one it uses: first one per eligible pair (no pass uses fewer),
then, while proposals have pushed pairs past the end, exactly as many as
are still certain to be needed. numpy marks the draws below the largest
proposal probability, and only those are visited one by one, so Python
work per pass follows the proposals rather than the pairs. As nothing is
drawn ahead, the generator ends where drawing one uniform at a time would
leave it, for every bit generator, and no rewind is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, two_hop_support


@dataclass(frozen=True, eq=False)
class RecommendationOutcome:
    """Proposed and accepted ordered pairs of one pass, in pass order.

    Each is a (k, 2) integer array with one (i, j) row per pair.
    """

    recommended: np.ndarray
    accepted: np.ndarray


def recommendation_probability(g: DirectedGraph, i: int, j: int) -> float:
    """Probability that the pass proposes the pair (i, j).

    Requires i, j in different communities and no existing edge (i, j);
    an existing edge means the pair is skipped, so asking for its
    probability is a contract violation. The two-hop support can exceed
    n - 1 (both link directions count), so the ratio is clamped to 1.
    The pair's support is counted directly, in O(n).
    """
    if g.community(i) == g.community(j):
        raise ValueError("recommendation_probability requires i, j in different communities")
    if g.has_edge(i, j):
        raise ValueError(f"edge ({i}, {j}) already exists; pair is never proposed")
    # two_hop_support's count for this one pair, from j's community alone
    n, adj = g.n_per_community, g.adj
    own = slice(n, 2 * n) if j >= n else slice(0, n)
    count = int(adj[own, j] @ (adj[i, own].astype(np.int64) + adj[own, i]))
    if count == 0:
        return 0.0
    return min(1.0, count * (1.0 / (n - 1)))


def run_recommender(
    g: DirectedGraph, acceptance: float, rng: np.random.Generator
) -> RecommendationOutcome:
    """One full pass over all cross-community ordered pairs of ``g``.

    ``acceptance`` is the probability c in [0, 1] that a proposed link is
    accepted by its target; any other value, NaN included, is a
    ValueError. Pairs are visited in lexicographic (i, j) order. Each pair
    with nonzero support takes one uniform and is proposed if it is below
    the pair's probability; a proposal takes one more uniform and is
    accepted if that is below ``acceptance``. Zero-support pairs take
    none. The pass takes exactly these uniforms, in this order, from
    ``rng`` and no others (see the module docstring), so a seeded
    generator reproduces the outcome bit for bit and ends where a loop
    drawing one uniform per step would leave it. This holds for a
    ``Generator`` over any numpy bit generator (PCG64, MT19937, SFC64,
    Philox): the pass never rewinds. The pass reads a fixed snapshot:
    pairs accepted earlier in the pass do not feed later proposals. The
    caller applies ``accepted`` to the graph.
    """
    if not 0.0 <= acceptance <= 1.0:
        raise ValueError(f"acceptance must be in [0, 1], got {acceptance}")
    n = g.n_per_community
    support = two_hop_support(g.adj, n)
    support[g.adj] = 0  # existing edges are skipped
    counts = support.ravel()
    eligible = counts.nonzero()[0]  # row-major: the lexicographic pass order
    if eligible.size == 0:
        none = np.empty((0, 2), dtype=np.intp)
        return RecommendationOutcome(none, none)
    probs = counts[eligible] * (1.0 / (n - 1))
    np.minimum(probs, 1.0, out=probs)
    proposed, draws = _proposals(probs, rng)
    recommended = np.empty((proposed.size, 2), dtype=np.intp)
    np.divmod(eligible[proposed], 2 * n, out=(recommended[:, 0], recommended[:, 1]))
    # the s-th proposal (from 0) of pair k drew at k + s, its acceptance at k + s + 1
    accepted = draws[proposed + np.arange(1, proposed.size + 1)] < acceptance
    return RecommendationOutcome(recommended, recommended[accepted])


def _proposals(probs: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the proposed pairs, and every uniform the pass drew.

    The first buffer holds one uniform per pair and is visited only at its
    draws below the largest probability; each later buffer holds what the
    proposals so far still need and is visited whole.
    """
    m = probs.size
    top = probs.max()
    prob = memoryview(probs)
    buffers = [rng.random(m)]
    candidates = (buffers[0] < top).nonzero()[0]
    visit = zip(candidates.tolist(), buffers[0][candidates].tolist())
    proposed: list[int] = []
    drawn, skip = m, -1  # uniforms drawn; position of the last proposal's acceptance draw
    while True:
        s = len(proposed)  # pair k's uniform sits at position k + s
        for pos, u in visit:
            if u < prob[pos - s] and pos != skip:
                proposed.append(pos - s)
                s += 1
                skip = pos + 1
        need = m + s - drawn
        if need == 0:
            return np.array(proposed, dtype=np.intp), np.concatenate(buffers)
        buffers.append(rng.random(need))
        visit = enumerate(buffers[-1].tolist(), drawn)
        drawn += need

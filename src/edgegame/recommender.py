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
are still certain to be needed. One rule visits every buffer: numpy
marks its draws below the largest proposal probability, and only those
are visited one by one, since no other draw can be a proposal. So Python
work per pass follows the proposals rather than the pairs. As nothing is
drawn ahead, the generator ends where drawing one uniform at a time would
leave it, for every bit generator, and no rewind is needed.

A stack of snapshots is passed in one sequence (``recommend_stack``): each
snapshot's eligible pairs follow the previous snapshot's, so the draws are
those of the passes run in turn.

The support is ``graph.two_hop_support``, built in the pass from the
stack's cross contacts (``graph.cross_contacts``). A caller that has found
them already hands them to ``recommend_stack``: ``dynamics.run_protocol``
does, with the contacts that its executor thread found beside the previous
pass. ``run_recommender``, and with it criterion 11, finds them in the pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import probability
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
    The pair's support is read from ``two_hop_support``.
    """
    exists = g.has_edge(i, j)  # checks both nodes first
    n = g.n_per_community
    if (i < n) == (j < n):
        raise ValueError("recommendation_probability requires i, j in different communities")
    if exists:
        raise ValueError(f"edge ({i}, {j}) already exists; pair is never proposed")
    count = int(two_hop_support(g.adj, n)[i, j])
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

    This is ``recommend_stack`` on the stack of one snapshot.
    """
    return recommend_stack(g.adj[None], (acceptance,), rng)


def recommend_stack(
    adj: np.ndarray,
    acceptance: Sequence[float],
    rng: np.random.Generator,
    contacts: tuple[tuple[np.ndarray, ...], ...] | None = None,
) -> RecommendationOutcome:
    """The passes over a boolean (k, 2n, 2n) stack of snapshots, in turn, as one sequence.

    ``acceptance`` holds one probability in [0, 1] per snapshot. Snapshot
    s's pass is ``run_recommender`` on ``adj[s]`` with ``acceptance[s]``:
    its eligible pairs follow those of the snapshots before it, and one
    run of ``_proposals`` over them all takes from ``rng`` exactly the
    uniforms that the k passes would take in turn. The outcome's rows
    number the nodes of the stack in turn: node i of snapshot s is
    s * 2n + i, so a stack of one gives the plain (i, j) pairs.

    ``contacts``, when given, must be ``graph.cross_contacts(adj, n)``;
    ``two_hop_support`` then builds the support from them in place of
    finding them. An ``adj`` that is not a 3-D bool stack is a ValueError.
    """
    if adj.ndim != 3:
        raise ValueError(f"adj must be a (k, 2n, 2n) stack of snapshots, got shape {adj.shape}")
    if len(acceptance) != len(adj):
        raise ValueError(f"acceptance must be one probability per snapshot, got {acceptance}")
    for c in acceptance:
        probability("acceptance", c)
    if adj.dtype != bool:
        raise ValueError(f"adj must be a bool array, got dtype {adj.dtype}")
    size = adj.shape[-1]
    n = size // 2
    support = two_hop_support(adj, n, contacts)
    support[adj] = 0  # existing edges are skipped
    counts = support.ravel()
    eligible = counts.nonzero()[0]  # row-major: snapshot by snapshot, each in pass order
    if eligible.size == 0:
        none = np.empty((0, 2), dtype=np.intp)
        return RecommendationOutcome(none, none)
    probs = counts[eligible] * (1.0 / (n - 1))
    np.minimum(probs, 1.0, out=probs)
    proposed, draws = _proposals(probs, rng)
    recommended = np.empty((proposed.size, 2), dtype=np.intp)
    np.divmod(eligible[proposed], size, out=(recommended[:, 0], recommended[:, 1]))
    # the s-th proposal (from 0) of pair k drew at k + s, its acceptance at k + s + 1
    accepted = draws[proposed + np.arange(1, proposed.size + 1)] < np.array(acceptance)[recommended[:, 0] // size]
    return RecommendationOutcome(recommended, recommended[accepted])


def _proposals(probs: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the proposed pairs, and every uniform the pass drew.

    Each buffer holds what the proposals so far still need, the first one
    uniform per pair, and is visited only at its draws below the largest
    probability: no other draw can be a proposal.
    """
    m = probs.size
    top = probs.max()
    prob = memoryview(probs)
    buffers = []
    proposed: list[int] = []
    drawn, skip = 0, -1  # uniforms drawn; position of the last proposal's acceptance draw
    while need := m + len(proposed) - drawn:
        buffers.append(rng.random(need))
        candidates = (buffers[-1] < top).nonzero()[0]
        s = len(proposed)  # pair k's uniform sits at position k + s
        for pos, u in zip((candidates + drawn).tolist(), buffers[-1][candidates].tolist()):
            if u < prob[pos - s] and pos != skip:
                proposed.append(pos - s)
                s += 1
                skip = pos + 1
        drawn += need
    return np.array(proposed, dtype=np.intp), np.concatenate(buffers)

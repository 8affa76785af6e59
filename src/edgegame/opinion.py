"""Binary-opinion reinforcement model on a random geometric graph.

Agents hold two confidence values, one per opinion, and at each
micro-step a random agent voices an opinion to a random neighbor: the
confidence of the voiced opinion moves toward +1 on agreement and -1 on
disagreement. The recommender variant softens disagreement by crediting
the speaker for the listener's like-minded neighbors, which keeps
minority opinions alive and holds the opinion-split segregation of the
fixed contact graph at a lower level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from .checks import integer, probability, real
from .dynamics import write_rows
from .graph import segregation_value
from .seeding import substream

# Most uniforms one buffer of ``run_opinion`` holds: the buffer stays small
# however long the horizon.
_CHUNK = 4096


@dataclass(frozen=True)
class OpinionConfig:
    """Model parameters; the defaults are the standard desk-scale setting."""

    n_agents: int = 100
    radius: float = 0.175
    learning_rate: float = 0.05
    exploration: float = 0.1
    acceptance: float = 0.9
    with_recommender: bool = True
    horizon: int = 20_000
    record_every: int = 100
    seed: int = 0

    def __post_init__(self):
        integer("n_agents", self.n_agents, 2)
        if not 0.0 < real("radius", self.radius):
            raise ValueError(f"radius must be positive, got {self.radius}")
        probability("learning_rate", self.learning_rate, positive=True)
        probability("exploration", self.exploration)
        probability("acceptance", self.acceptance)
        if type(self.with_recommender) is not bool:
            raise ValueError(f"with_recommender must be a bool, got {self.with_recommender!r}")
        integer("horizon", self.horizon, 1)
        integer("record_every", self.record_every, 1)
        integer("seed", self.seed)


def init_geometric_graph(n: int, radius: float, rng: np.random.Generator) -> list[list[int]]:
    """Drop n points uniformly in the unit square; link pairs within radius.

    Returns the contact graph as per-agent neighbor lists in ascending
    order; each undirected edge is in both of its ends' lists.
    """
    integer("n", n, 2)
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    positions = rng.random((n, 2))
    diff = positions[:, None, :] - positions[None, :, :]
    within = (diff**2).sum(axis=-1) <= radius * radius
    np.fill_diagonal(within, False)
    return [np.flatnonzero(row).tolist() for row in within]


@dataclass
class OpinionState:
    """Mutable simulation state; opinions are the most recent expressions.

    ``neighbors`` is the contact graph, as ``init_geometric_graph`` gives it.
    """

    neighbors: list[list[int]]
    opinions: list[int]
    q_plus: list[float]
    q_minus: list[float]


def init_state(cfg: OpinionConfig, rng: np.random.Generator) -> OpinionState:
    """Geometry, uniform confidences in (-0.5, 0.5), opinions from the argmax."""
    neighbors = init_geometric_graph(cfg.n_agents, cfg.radius, rng)
    q_plus = (rng.random(cfg.n_agents) - 0.5).tolist()
    q_minus = (rng.random(cfg.n_agents) - 0.5).tolist()
    opinions = [1 if q_plus[i] >= q_minus[i] else -1 for i in range(cfg.n_agents)]
    return OpinionState(neighbors, opinions, q_plus, q_minus)


def interaction_reward(expressed: int, listener_opinion: int, ally_count: int, acceptance: float) -> float:
    """Feedback for one voiced opinion.

    Agreement pays +1. Disagreement pays -1 plus the acceptance
    probability times the number of the listener's neighbors who share
    the speaker's opinion; without the recommender the acceptance is 0.
    """
    base = float(expressed * listener_opinion)
    if expressed != listener_opinion:
        return base + acceptance * ally_count
    return base


def step_opinion(state: OpinionState, cfg: OpinionConfig, rng: np.random.Generator) -> None:
    """One micro-step: pick a speaker, voice an opinion, update one confidence.

    Draw order is fixed: speaker uniform, then (if the speaker has any
    neighbors) listener uniform and one exploration uniform. Isolated
    speakers make the step a no-op. With probability 1 - exploration the
    speaker voices its higher-confidence opinion, otherwise the other one;
    the voiced opinion becomes the speaker's public opinion and only its
    confidence entry is updated. Without the recommender the step is the
    step at acceptance 0, as in ``run_opinion``.
    """
    n = cfg.n_agents
    i = int(rng.random() * n)
    nbrs = state.neighbors[i]
    if not nbrs:
        return
    j = nbrs[int(rng.random() * len(nbrs))]
    favored = 1 if state.q_plus[i] >= state.q_minus[i] else -1
    expressed = -favored if rng.random() < cfg.exploration else favored
    state.opinions[i] = expressed
    listener_opinion = state.opinions[j]
    ally_count = 0
    if expressed != listener_opinion:
        opinions = state.opinions
        for k in state.neighbors[j]:
            if k != i and opinions[k] == expressed:
                ally_count += 1
    acceptance = cfg.acceptance if cfg.with_recommender else 0.0
    reward = interaction_reward(expressed, listener_opinion, ally_count, acceptance)
    alpha = cfg.learning_rate
    if expressed == 1:
        state.q_plus[i] = (1.0 - alpha) * state.q_plus[i] + alpha * reward
    else:
        state.q_minus[i] = (1.0 - alpha) * state.q_minus[i] + alpha * reward


class OpinionRecord(NamedTuple):
    """One row of the opinion CSV; its fields are the columns."""

    step: int
    segregation: float
    n_plus: int
    n_minus: int
    mean_q_gap: float


OPINION_CSV_COLUMNS = OpinionRecord._fields


def measure(state: OpinionState, step: int) -> OpinionRecord:
    """Record of ``state`` after ``step`` micro-steps, the contact graph split by opinion sign.

    Each undirected edge counts as two directed ones, one in each end's
    neighbor list; if one opinion has no holders the network counts as
    fully segregated. This is the from-scratch recount, the tests' oracle
    for the running counts ``run_opinion`` builds its records from.
    """
    opinions = state.opinions
    n_plus = opinions.count(1)
    n_minus = len(opinions) - n_plus
    split = sum(opinions[i] != opinions[k] for i, nbrs in enumerate(state.neighbors) for k in nbrs)
    seg = segregation_value(split, n_plus, n_minus)
    qp = np.asarray(state.q_plus)
    qm = np.asarray(state.q_minus)
    gap = float(np.abs(qp - qm).mean())
    return OpinionRecord(step, seg, n_plus, n_minus, gap)


def run_opinion(cfg: OpinionConfig) -> list[OpinionRecord]:
    """Run the model and record metrics every ``record_every`` micro-steps.

    The first record is the initial state (step 0). Identical configs
    produce identical traces.

    The loop is ``step_opinion`` rewritten over local lists. It takes its
    uniforms from the ``steps`` substream in buffers of at most ``_CHUNK``,
    each never longer than the lower bound of what the run still needs: one
    per step left, and two more for a speaker with neighbors. So it uses
    the same doubles, in the same order, as ``step_opinion`` drawing one at
    a time, and leaves the generator where that loop would.

    Each buffer is decoded with numpy as it is drawn, every position as if
    it held a speaker draw: the speaker, the listener the next draw picks
    (-1 for an isolated speaker) and whether the one after falls below the
    exploration rate. The step loop reads these and moves on by three
    draws for a linked speaker and one for an isolated one. A linked
    speaker with fewer than two draws left tops the buffer up, keeping its
    own draw and any after it, and has the new buffer decoded. Numpy's float64
    product and truncation give the integers ``int(u * n)`` gives.

    For each agent the loop keeps how many of its neighbors hold +1, and
    for the records the number of +1 holders and of edges whose ends
    disagree. It updates them only when a speaker's public opinion flips,
    so the listener's ally count is an integer read, and every record,
    step 0 included, is built from the counts.

    Without the recommender the model is the model at acceptance 0: a
    linked speaker's step branches once, on the opinion it voices, and
    reads its update from per-run terms with the floats of ``step_opinion``,
    ``alpha * 1.0 == alpha`` on agreement and on disagreement ``credit[a]``
    ``= alpha * (-1.0 + acceptance * a)`` for a allies, ``-alpha`` at
    acceptance 0. Steps run in blocks of ``record_every``, each opened by a
    record of the state before it; a last, empty block records a horizon
    that ``record_every`` divides.
    """
    init_rng = substream(cfg.seed, "opinion", "init")
    step_rng = substream(cfg.seed, "opinion", "steps")
    state = init_state(cfg, init_rng)
    n, horizon, every, chunk = cfg.n_agents, cfg.horizon, cfg.record_every, _CHUNK
    explore = cfg.exploration
    acceptance = cfg.acceptance if cfg.with_recommender else 0.0
    alpha = cfg.learning_rate
    keep = 1.0 - alpha
    neighbors, opinions = state.neighbors, state.opinions
    q_plus, q_minus = state.q_plus, state.q_minus
    deg = [len(nbrs) for nbrs in neighbors]
    plus = [sum(opinions[k] == 1 for k in nbrs) for nbrs in neighbors]
    # the neighbor lists end to end, agent i's from offs[i], and one slot
    # past the end that an isolated last agent's offset may point at
    deg_a = np.array(deg)
    offs = np.cumsum([0] + deg[:-1])
    flat = np.array([k for nbrs in neighbors for k in nbrs] + [-1])
    n_plus = opinions.count(1)
    # each disagreeing edge, once from each of its ends
    split = int(np.where(np.equal(opinions, 1), deg_a - plus, plus).sum()) // 2

    def decode(buf: np.ndarray) -> tuple[list[int], list[int], list[bool]]:
        """Speaker, listener (-1 if isolated) and exploration flag per position."""
        speakers = (buf * n).astype(np.intp)
        d = deg_a[speakers[:-1]]
        listeners = np.where(d > 0, flat[offs[speakers[:-1]] + (buf[1:] * d).astype(np.intp)], -1)
        return speakers.tolist(), listeners.tolist(), (buf[2:] < explore).tolist()

    # alpha times a disagreement's reward, by the listener's ally count,
    # which is at most the listener's degree less the speaker
    credit = [alpha * (-1.0 + acceptance * a) for a in range(max(deg))]

    records = []
    # a speaker at ``at`` has two draws after it while ``at < paired``
    at = size = paired = 0
    for first in range(0, horizon + 1, every):
        gap = np.add.reduce(np.abs(np.subtract(q_plus, q_minus))) / n
        seg = segregation_value(2 * split, n_plus, n - n_plus)
        records.append(OpinionRecord(first, seg, n_plus, n - n_plus, float(gap)))
        for s in range(first + 1, min(first + every, horizon) + 1):
            if at == size:
                buf = step_rng.random(min(horizon - s + 1, chunk))
                S, J, F = decode(buf)
                at, size, paired = 0, len(buf), len(buf) - 2
            i = S[at]
            if not deg[i]:
                at += 1
                continue
            if at >= paired:
                # top up, keeping the speaker's draw and any after it
                left = size - at - 1
                buf = np.concatenate((buf[at:], step_rng.random(min(2 + horizon - s, chunk) - left)))
                S, J, F = decode(buf)
                at, size, paired = 0, len(buf), len(buf) - 2
            j, explored = J[at], F[at]
            at += 3
            # i voices +1 when it favors +1 and does not explore, or the reverse;
            # i is one of j's neighbors and already holds what it voices
            if (q_plus[i] >= q_minus[i]) != explored:
                if opinions[i] == -1:
                    opinions[i] = 1
                    n_plus += 1
                    split += deg[i] - 2 * plus[i]
                    for k in neighbors[i]:
                        plus[k] += 1
                if opinions[j] == 1:
                    q_plus[i] = keep * q_plus[i] + alpha
                else:
                    q_plus[i] = keep * q_plus[i] + credit[plus[j] - 1]
            else:
                if opinions[i] == 1:
                    opinions[i] = -1
                    n_plus -= 1
                    split -= deg[i] - 2 * plus[i]
                    for k in neighbors[i]:
                        plus[k] -= 1
                if opinions[j] == -1:
                    q_minus[i] = keep * q_minus[i] + alpha
                else:
                    q_minus[i] = keep * q_minus[i] + credit[deg[j] - plus[j] - 1]
    return records


def tail_mean_segregation(records: Sequence[OpinionRecord]) -> float:
    """Mean segregation over the trailing tenth of the records, at least one."""
    if not records:
        raise ValueError("no records")
    k = max(1, len(records) // 10)
    return float(np.mean([r.segregation for r in records[-k:]]))


def write_opinion_csv(records: Sequence[OpinionRecord], fp: IO[str]) -> None:
    """Records as CSV with the ``OPINION_CSV_COLUMNS`` header, by ``write_rows``."""
    write_rows(fp, OPINION_CSV_COLUMNS, records)

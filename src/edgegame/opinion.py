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

import csv
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .graph import segregation_value
from .seeding import substream

OPINION_CSV_COLUMNS = ("step", "segregation", "n_plus", "n_minus", "mean_q_gap")

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
        if self.n_agents < 2:
            raise ValueError("n_agents must be >= 2")
        if not 0.0 < self.radius:
            raise ValueError("radius must be positive")
        if not 0.0 <= self.exploration <= 1.0:
            raise ValueError("exploration must be in [0, 1]")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= self.acceptance <= 1.0:
            raise ValueError("acceptance must be in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def init_geometric_graph(
    n: int, radius: float, rng: np.random.Generator
) -> tuple[list[list[int]], np.ndarray]:
    """Drop n points uniformly in the unit square; link pairs within radius.

    Returns per-agent neighbor lists in ascending order and the
    undirected edges as an (m, 2) array of (u, v) rows with u < v, in
    lexicographic order.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    positions = rng.random((n, 2))
    diff = positions[:, None, :] - positions[None, :, :]
    within = (diff**2).sum(axis=-1) <= radius * radius
    np.fill_diagonal(within, False)
    neighbors = [np.flatnonzero(row).tolist() for row in within]
    return neighbors, np.argwhere(np.triu(within))


@dataclass
class OpinionState:
    """Mutable simulation state; opinions are the most recent expressions.

    ``edges`` is the (m, 2) array of undirected contact edges.
    """

    neighbors: list[list[int]]
    edges: np.ndarray
    opinions: list[int]
    q_plus: list[float]
    q_minus: list[float]
    steps_done: int = 0


def init_state(cfg: OpinionConfig, rng: np.random.Generator) -> OpinionState:
    """Geometry, uniform confidences in (-0.5, 0.5), opinions from the argmax."""
    neighbors, edges = init_geometric_graph(cfg.n_agents, cfg.radius, rng)
    q_plus = (rng.random(cfg.n_agents) - 0.5).tolist()
    q_minus = (rng.random(cfg.n_agents) - 0.5).tolist()
    opinions = [1 if q_plus[i] >= q_minus[i] else -1 for i in range(cfg.n_agents)]
    return OpinionState(neighbors, edges, opinions, q_plus, q_minus)


def interaction_reward(
    expressed: int, listener_opinion: int, ally_count: int, acceptance: float, with_recommender: bool
) -> float:
    """Feedback for one voiced opinion.

    Agreement pays +1. Disagreement pays -1 plus, in the recommender
    variant, the acceptance probability times the number of the
    listener's neighbors who share the speaker's opinion.
    """
    base = float(expressed * listener_opinion)
    if with_recommender and expressed != listener_opinion:
        return base + acceptance * ally_count
    return base


def step_opinion(state: OpinionState, cfg: OpinionConfig, rng: np.random.Generator) -> None:
    """One micro-step: pick a speaker, voice an opinion, update one confidence.

    Draw order is fixed: speaker uniform, then (if the speaker has any
    neighbors) listener uniform and one exploration uniform. Isolated
    speakers make the step a no-op. With probability 1 - exploration the
    speaker voices its higher-confidence opinion, otherwise the other one;
    the voiced opinion becomes the speaker's public opinion and only its
    confidence entry is updated.
    """
    n = cfg.n_agents
    i = int(rng.random() * n)
    nbrs = state.neighbors[i]
    state.steps_done += 1
    if not nbrs:
        return
    j = nbrs[int(rng.random() * len(nbrs))]
    favored = 1 if state.q_plus[i] >= state.q_minus[i] else -1
    expressed = -favored if rng.random() < cfg.exploration else favored
    state.opinions[i] = expressed
    listener_opinion = state.opinions[j]
    ally_count = 0
    if cfg.with_recommender and expressed != listener_opinion:
        opinions = state.opinions
        for k in state.neighbors[j]:
            if k != i and opinions[k] == expressed:
                ally_count += 1
    reward = interaction_reward(
        expressed, listener_opinion, ally_count, cfg.acceptance, cfg.with_recommender
    )
    alpha = cfg.learning_rate
    if expressed == 1:
        state.q_plus[i] = (1.0 - alpha) * state.q_plus[i] + alpha * reward
    else:
        state.q_minus[i] = (1.0 - alpha) * state.q_minus[i] + alpha * reward


@dataclass(frozen=True)
class OpinionRecord:
    step: int
    segregation: float
    n_plus: int
    n_minus: int
    mean_q_gap: float


def measure(state: OpinionState) -> OpinionRecord:
    """Segregation of the contact graph split by opinion sign.

    Each undirected edge counts as two directed ones; if one opinion has
    no holders the network counts as fully segregated.
    """
    opinions = np.asarray(state.opinions)
    n_plus = int((opinions == 1).sum())
    n_minus = len(state.opinions) - n_plus
    inter = 2 * int((opinions[state.edges[:, 0]] != opinions[state.edges[:, 1]]).sum())
    seg = segregation_value(inter, n_plus, n_minus)
    qp = np.asarray(state.q_plus)
    qm = np.asarray(state.q_minus)
    gap = float(np.abs(qp - qm).mean())
    return OpinionRecord(state.steps_done, seg, n_plus, n_minus, gap)


def run_opinion(cfg: OpinionConfig) -> list[OpinionRecord]:
    """Run the model and record metrics every ``record_every`` micro-steps.

    The first record is the initial state (step 0). Identical configs
    produce identical traces.

    The loop is ``step_opinion`` inlined over local lists. It keeps, for
    each agent, how many of its neighbors hold +1 and updates that only
    when a speaker's public opinion flips, so the listener's ally count is
    an integer read instead of a scan. It takes its uniforms from the
    ``steps`` substream in buffers of at most ``_CHUNK``, each never longer
    than the lower bound of what the run still needs: one per step left,
    and two more for a speaker with neighbors. So it uses the same doubles,
    in the same order, as ``step_opinion`` drawing one at a time, and
    leaves the generator where that loop would.
    """
    init_rng = substream(cfg.seed, "opinion", "init")
    step_rng = substream(cfg.seed, "opinion", "steps")
    state = init_state(cfg, init_rng)
    records = [measure(state)]
    n, horizon, every, chunk = cfg.n_agents, cfg.horizon, cfg.record_every, _CHUNK
    explore, acceptance, with_rec = cfg.exploration, cfg.acceptance, cfg.with_recommender
    alpha = cfg.learning_rate
    keep = 1.0 - alpha
    neighbors, opinions = state.neighbors, state.opinions
    q_plus, q_minus = state.q_plus, state.q_minus
    deg = [len(nbrs) for nbrs in neighbors]
    plus = [sum(opinions[k] == 1 for k in nbrs) for nbrs in neighbors]
    draws: list[float] = []
    at = 0
    for s in range(1, horizon + 1):
        if at == len(draws):
            draws = step_rng.random(min(horizon - s + 1, chunk)).tolist()
            at = 0
        i = int(draws[at] * n)
        at += 1
        nbrs = neighbors[i]
        if nbrs:
            left = len(draws) - at
            if left < 2:
                draws = draws[at:] + step_rng.random(min(2 + horizon - s, chunk) - left).tolist()
                at = 0
            j = nbrs[int(draws[at] * deg[i])]
            favored = 1 if q_plus[i] >= q_minus[i] else -1
            expressed = -favored if draws[at + 1] < explore else favored
            at += 2
            if opinions[i] != expressed:
                opinions[i] = expressed
                for k in nbrs:
                    plus[k] += expressed
            heard = opinions[j]
            reward = float(expressed * heard)
            if with_rec and expressed != heard:
                # i is one of j's neighbors and already holds ``expressed``
                allies = plus[j] - 1 if expressed == 1 else deg[j] - plus[j] - 1
                reward += acceptance * allies
            if expressed == 1:
                q_plus[i] = keep * q_plus[i] + alpha * reward
            else:
                q_minus[i] = keep * q_minus[i] + alpha * reward
        if s % every == 0:
            state.steps_done = s
            records.append(measure(state))
    return records


def tail_mean_segregation(records: Sequence[OpinionRecord], fraction: float = 0.1) -> float:
    """Mean segregation over the trailing ``fraction`` of the records."""
    if not records:
        raise ValueError("no records")
    k = max(1, int(len(records) * fraction))
    return float(np.mean([r.segregation for r in records[-k:]]))


def write_opinion_csv(records: Sequence[OpinionRecord], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(OPINION_CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.step,
                format(r.segregation, ".9g"),
                r.n_plus,
                r.n_minus,
                format(r.mean_q_gap, ".9g"),
            ]
        )

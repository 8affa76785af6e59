"""Seeded best-response simulations and the switching acceptance process.

Three protocol variants share one loop: players alternate best responses
(red on odd steps, blue on even steps), a fresh graph snapshot is sampled
from the current strategies each step, and optionally a recommender pass
adds accepted cross links before metrics are recorded. The acceptance
probability is absent (P1), fixed (P2), or follows a finite-state chain
that may only jump every ``holding_time`` steps (P3).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .blockmodel import StrategyPair, block_matrix, sample_snapshot
from .game import PlayerRole, best_response, expected_utility_rec, nash_equilibrium
from .graph import inter_edge_count, segregation_measure
from .recommender import run_recommender
from .seeding import substream

TRACE_COLUMNS = ("t", "p_r", "p_b", "c", "segregation", "inter_edges", "recommended", "accepted")


class SemiMarkovChain:
    """Finite-state acceptance process that can jump only every T_h steps.

    Holds ``states`` (acceptance probabilities) and a row-stochastic
    transition matrix, but not the current state: ``step_semi_markov``
    takes a state index and returns the next one. At times t with
    (t+1) mod holding_time == 0 the next state is drawn from the current
    row; at all other times the state is kept. Transitions never depend on
    the players' actions.
    """

    def __init__(
        self,
        states: Sequence[float],
        transition: Sequence[Sequence[float]] | np.ndarray,
        holding_time: int,
        initial_state: int = 0,
    ):
        self.states = tuple(float(c) for c in states)
        if not self.states:
            raise ValueError("chain needs at least one state")
        for c in self.states:
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"acceptance states must be in [0, 1], got {c}")
        self.transition = np.asarray(transition, dtype=np.float64)
        k = len(self.states)
        if self.transition.shape != (k, k):
            raise ValueError(f"transition matrix must be {k}x{k}, got {self.transition.shape}")
        if not np.all(np.isfinite(self.transition)):
            raise ValueError("transition probabilities must be finite")
        if np.any(self.transition < 0.0):
            raise ValueError("transition probabilities must be non-negative")
        row_sums = self.transition.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise ValueError(f"transition rows must sum to 1, got {row_sums}")
        if holding_time < 1:
            raise ValueError("holding_time must be >= 1")
        self.holding_time = int(holding_time)
        if not 0 <= initial_state < k:
            raise ValueError(f"initial_state {initial_state} out of range")
        self.initial_state = int(initial_state)
        self._cum = np.cumsum(self.transition, axis=1)

    def __repr__(self) -> str:
        return f"SemiMarkovChain(states={self.states}, holding_time={self.holding_time})"


def step_semi_markov(chain: SemiMarkovChain, state: int, t: int, rng: np.random.Generator) -> int:
    """Advance the chain from ``state`` at time t to t+1 and return the next state index.

    Exactly one uniform is consumed at each jump instant (even when the
    row is degenerate), none otherwise.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if (t + 1) % chain.holding_time != 0:
        return state
    nxt = int(np.searchsorted(chain._cum[state], rng.random(), side="right"))
    return min(nxt, len(chain.states) - 1)


@dataclass
class ProtocolConfig:
    """One simulation run: sizes, acceptance probability and seed.

    ``acceptance`` picks the protocol: None runs P1 (no recommender), a
    probability c in [0, 1] runs P2 (fixed acceptance), and a
    ``SemiMarkovChain`` runs P3 (switching acceptance).
    """

    n_per_community: int = 20
    horizon: int = 20
    acceptance: float | SemiMarkovChain | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_per_community < 1:
            raise ValueError("n_per_community must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        c = self.acceptance
        if not (c is None or isinstance(c, SemiMarkovChain) or 0.0 <= c <= 1.0):
            raise ValueError(f"acceptance must be in [0, 1], got {c}")


@dataclass(frozen=True)
class TraceRecord:
    """Per-step snapshot of the run; counts are None when no recommender ran."""

    t: int
    p_r: float
    p_b: float
    acceptance_probability: float | None
    segregation: float
    inter_edges: int
    recommended: int | None
    accepted: int | None


def run_protocol(cfg: ProtocolConfig) -> list[TraceRecord]:
    """Simulate one seeded run and return records for t = 0 .. horizon.

    Initial strategies are drawn uniformly from (0, 1]. From t = 1 on, the
    acting player (red at odd t, blue at even t) jumps to its closed-form
    best response while the other holds. Each step then samples a fresh
    snapshot, runs the recommender pass when configured, records metrics
    on the post-pass graph, and finally advances the acceptance chain.
    """
    init_rng = substream(cfg.seed, "init")
    graph_rng = substream(cfg.seed, "graph")
    rec_rng = substream(cfg.seed, "recommend")
    chain_rng = substream(cfg.seed, "chain")

    p_r = 1.0 - init_rng.random()
    p_b = 1.0 - init_rng.random()
    chain = cfg.acceptance if isinstance(cfg.acceptance, SemiMarkovChain) else None
    state = chain.initial_state if chain is not None else None
    n = cfg.n_per_community

    records: list[TraceRecord] = []
    for t in range(cfg.horizon + 1):
        acceptance = cfg.acceptance if chain is None else chain.states[state]
        if t >= 1:
            if acceptance is None:
                response = 1.0  # strictly dominant without the recommender
            else:
                opponent = p_b if t % 2 == 1 else p_r
                response = best_response(acceptance, opponent)
            if t % 2 == 1:
                p_r = response
            else:
                p_b = response

        g = sample_snapshot(block_matrix(StrategyPair(p_r, p_b), n), n, graph_rng)
        recommended = accepted = None
        if acceptance is not None:
            outcome = run_recommender(g, acceptance, rec_rng)
            g.add_edges(outcome.accepted)
            recommended = len(outcome.recommended)
            accepted = len(outcome.accepted)

        records.append(
            TraceRecord(
                t=t,
                p_r=p_r,
                p_b=p_b,
                acceptance_probability=acceptance,
                segregation=segregation_measure(g),
                inter_edges=inter_edge_count(g),
                recommended=recommended,
                accepted=accepted,
            )
        )
        if chain is not None:
            state = step_semi_markov(chain, state, t, chain_rng)
    return records


def format_float(x: float) -> str:
    """Locale-independent text form with 9 significant digits."""
    return format(float(x), ".9g")


def write_trace_csv(records: Sequence[TraceRecord], fp: IO[str]) -> None:
    """Trace as CSV with fixed columns; missing fields become empty strings."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.t,
                format_float(r.p_r),
                format_float(r.p_b),
                "" if r.acceptance_probability is None else format_float(r.acceptance_probability),
                format_float(r.segregation),
                r.inter_edges,
                "" if r.recommended is None else r.recommended,
                "" if r.accepted is None else r.accepted,
            ]
        )


# --- planning analysis ----------------------------------------------------


@dataclass(frozen=True)
class MyopicReport:
    """Discounted values of the grid-optimal and stage-greedy policies.

    ``gap`` is dp_value - myopic_value; because chain transitions do not
    depend on actions, the stage-greedy policy is optimal and the gap
    stays at numerical zero.
    """

    myopic_value: float
    dp_value: float
    gap: float
    myopic_actions: tuple[float, ...]


def verify_myopic_optimality(
    chain: SemiMarkovChain, gamma: float, action_grid_size: int, horizon: int
) -> MyopicReport:
    """Compare backward-induction planning against stage-greedy play.

    The red player picks actions from a uniform grid over (0, 1] while the
    opponent plays its one-stage equilibrium response for the current
    chain state. Backward induction maximizes the discounted sum over the
    full horizon; the myopic policy maximizes each stage alone on the same
    grid. The stage payoff is ``expected_utility_rec`` of the red player.
    Values start from the chain's initial state.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if action_grid_size < 2:
        raise ValueError("action_grid_size must be >= 2")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    actions = np.linspace(0.0, 1.0, action_grid_size)[1:]  # action set is (0, 1]
    k = len(chain.states)
    stage = np.empty((k, len(actions)))
    for s_idx, c in enumerate(chain.states):
        b = nash_equilibrium(c).strategy.p_b
        stage[s_idx] = [
            expected_utility_rec(StrategyPair(a, b), c, PlayerRole.RED) for a in actions.tolist()
        ]
    myopic_idx = stage.argmax(axis=1)
    myopic_stage = stage[np.arange(k), myopic_idx]

    identity = np.eye(k)
    v = np.zeros(k)  # optimal continuation value
    w = np.zeros(k)  # continuation value under the myopic policy
    for t in reversed(range(horizon)):
        p_t = chain.transition if (t + 1) % chain.holding_time == 0 else identity
        cont_v = gamma * (p_t @ v)
        cont_w = gamma * (p_t @ w)
        v = np.array([np.max(stage[s] + cont_v[s]) for s in range(k)])
        w = myopic_stage + cont_w

    dp_value = float(v[chain.initial_state])
    myopic_value = float(w[chain.initial_state])
    return MyopicReport(
        myopic_value=myopic_value,
        dp_value=dp_value,
        gap=dp_value - myopic_value,
        myopic_actions=tuple(float(actions[i]) for i in myopic_idx),
    )

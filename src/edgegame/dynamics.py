"""Seeded best-response simulations and the switching acceptance process.

Three protocol variants share one loop: players alternate best responses
(red on odd steps, blue on even steps), a fresh graph snapshot is sampled
from the current strategies each step, and optionally a recommender pass
adds accepted cross links before metrics are recorded. The acceptance
probability is absent (P1: the players play the game at c = 0 and no pass
runs), fixed (P2), or follows a finite-state chain that may only jump
every ``holding_time`` steps (P3).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from . import blockmodel, graph
from .blockmodel import StrategyPair, block_matrix
from .checks import integer, probability, real
from .game import PlayerRole, best_response, expected_utility_rec, nash_equilibrium
from .graph import inter_edge_count, segregation_value
from .recommender import recommend_stack
from .seeding import substream

# Not called here; layerbench's tracer TARGETS resolve them here (ROADMAP item 1).
from .blockmodel import sample_snapshot  # noqa: F401
from .graph import segregation_measure  # noqa: F401
from .recommender import run_recommender  # noqa: F401

# Most adjacency cells, summed over its snapshots, of one stack of steps
# that run_protocol samples and passes at once. A stack holds at least one
# snapshot, so from n = 91 on each step is a stack of its own, and a
# horizon-20 run at n <= 27 is one stack. That costs about 0.35 MB of peak
# RSS: layerbench's protocol-n20 workload (n = 20, horizon 20) peaks at
# 39.6 MB against 39.2 MB with 2**13 cells (x86-64, numpy 2.4.6, medians
# of 10 runs).
STACK_CELLS = 2**16


def _shape(value) -> tuple[int, ...] | None:
    """``value``'s shape as an array, or None if its rows differ in length."""
    try:
        return np.shape(value)
    except ValueError:  # numpy's words for a ragged value, which name no field
        return None


class SemiMarkovChain:
    """Finite-state acceptance process that can jump only every T_h steps.

    Holds ``states`` (acceptance probabilities) and a row-stochastic
    transition matrix, uniform when ``transition`` is None, but not the
    current state: ``step_semi_markov`` takes a state index and returns
    the next one. At times t with (t+1) mod holding_time == 0 the next
    state is drawn from the current row; at all other times the state is
    kept. Transitions never depend on the players' actions.
    """

    def __init__(
        self,
        states: Sequence[float],
        transition: Sequence[Sequence[float]] | np.ndarray | None,
        holding_time: int,
        initial_state: int = 0,
    ):
        shape = _shape(states)
        if shape is None or len(shape) != 1 or shape[0] == 0:
            raise ValueError(f"states must be a non-empty sequence of probabilities, got {states!r}")
        self.states = tuple(float(probability("states", c)) for c in states)
        k = len(self.states)
        if transition is None:
            transition = np.full((k, k), 1.0 / k)
        if _shape(transition) != (k, k) or np.asarray(transition).dtype.kind not in "iuf":
            raise ValueError(f"transition must be a {k}x{k} matrix of numbers, got {transition!r}")
        self.transition = np.array(transition, dtype=np.float64)
        # NaN fails this test, and an infinity the row sums
        if not np.all(self.transition >= 0.0):
            raise ValueError("transition probabilities must be non-negative numbers")
        row_sums = self.transition.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise ValueError(f"transition rows must sum to 1, got {row_sums}")
        self.holding_time = integer("holding_time", holding_time, 1)
        self.initial_state = integer("initial_state", initial_state, 0)
        if initial_state >= k:
            raise ValueError(f"initial_state must be < {k}, got {initial_state}")
        self._cum = np.cumsum(self.transition, axis=1)


def step_semi_markov(chain: SemiMarkovChain, state: int, t: int, rng: np.random.Generator) -> int:
    """Advance the chain from ``state`` at time t to t+1 and return the next state index.

    Exactly one uniform is consumed at each jump instant (even when the
    row is degenerate), none otherwise.
    """
    if integer("state", state, 0) >= len(chain.states):
        raise ValueError(f"state must be < {len(chain.states)}, got {state}")
    integer("t", t, 0)
    if (t + 1) % chain.holding_time != 0:
        return state
    nxt = int(np.searchsorted(chain._cum[state], rng.random(), side="right"))
    return min(nxt, len(chain.states) - 1)


@dataclass
class ProtocolConfig:
    """One simulation run: sizes, acceptance probability and seed.

    ``acceptance`` picks the protocol: None runs P1 (no recommender, so
    the game at c = 0), a probability c in [0, 1] runs P2 (fixed
    acceptance), and a ``SemiMarkovChain`` runs P3 (switching acceptance).
    """

    n_per_community: int = 20
    horizon: int = 20
    acceptance: float | SemiMarkovChain | None = None
    seed: int = 0

    def __post_init__(self):
        integer("n_per_community", self.n_per_community, 1)
        integer("horizon", self.horizon, 1)
        integer("seed", self.seed)
        if not (self.acceptance is None or isinstance(self.acceptance, SemiMarkovChain)):
            probability("acceptance", self.acceptance)


class TraceRecord(NamedTuple):
    """One step's trace row; ``c`` and the counts are None when no recommender ran."""

    t: int
    p_r: float
    p_b: float
    c: float | None
    segregation: float
    inter_edges: int
    recommended: int | None
    accepted: int | None


TRACE_COLUMNS = TraceRecord._fields


def run_protocol(cfg: ProtocolConfig) -> list[TraceRecord]:
    """Simulate one seeded run and return records for t = 0 .. horizon.

    Initial strategies are drawn uniformly from (0, 1]. From t = 1 on, the
    acting player (red at odd t, blue at even t) jumps to its closed-form
    best response while the other holds. Each step then samples a fresh
    snapshot, runs the recommender pass when configured, records metrics
    on the post-pass graph, and finally advances the acceptance chain.

    The strategies never read a snapshot, so the run is planned first, with
    the ``init`` and ``chain`` draws: columns over t of the strategies and
    acceptance, and one (T, 2, 2) array of block tables. The steps then go
    in stacks of at most ``STACK_CELLS`` cells, each a slice of the plan:
    one ``sample_adjacency`` draw from ``graph`` and one ``recommend_stack``
    pass from ``recommend`` per stack, which take the uniforms that
    step-by-step sampling and passes would take. Accepted pairs are
    distinct cross non-edges, so a step's post-pass ``inter_edges`` is its
    snapshot's cross count plus its accepted count. The stacks only extend
    the run's count columns; every record is built once, after the last stack.

    Each stack is drawn together with its cross contacts
    (``graph.cross_contacts``, none in P1), the first stage of its two-hop
    support; ``recommend_stack(..., contacts=)`` hands them to
    ``graph.two_hop_support``, which adds up the support from them. The
    first stack is drawn in the calling thread. After counting stack i's
    cross edges, this thread submits the draw of stack i + 1 and its
    contacts, and no other, to a one-thread executor, passes stack i and
    then takes that job's result, which raises the job's error if it had
    one. Only the stack and its small index and weight arrays come back from
    the executor: the support and its terms are made in the calling thread.
    Every table is planned before the first draw, and only the executor
    draws from ``graph`` while the pass draws from ``recommend``, so the
    draws, the records and each generator's end state are those of one
    thread. The executor's thread has ended before this function returns or
    raises; a run of one stack submits nothing and starts no thread.
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

    T = cfg.horizon + 1
    p_rs, p_bs, cs = [], [], []
    for t in range(T):
        c = cfg.acceptance if chain is None else chain.states[state]
        if t >= 1:
            opponent = p_b if t % 2 == 1 else p_r
            response = best_response(0.0 if c is None else c, opponent)
            if t % 2 == 1:
                p_r = response
            else:
                p_b = response
        p_rs.append(p_r)
        p_bs.append(p_b)
        cs.append(c)
        if chain is not None:
            state = step_semi_markov(chain, state, t, chain_rng)
    tables = np.stack([block_matrix(StrategyPair(r, b), n) for r, b in zip(p_rs, p_bs)])

    per_stack = max(1, STACK_CELLS // (4 * n * n))
    passes = cfg.acceptance is not None
    inter_edges = []  # of each t, after its pass
    recommended, accepted = ([], []) if passes else ([None] * T, [None] * T)
    # imported here, so that a process that runs no protocol does not load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as worker:
        adj, contacts = _draw_stack(tables[:per_stack], n, graph_rng, passes)
        for start in range(0, T, per_stack):
            stop = start + per_stack
            inter = inter_edge_count(adj, n)
            # the next draw starts after the count, so that it overlaps only the
            # pass, never another draw or count
            if stop < T:
                drawn = worker.submit(_draw_stack, tables[stop : stop + per_stack], n, graph_rng, passes)
            if passes:
                outcome = recommend_stack(adj, cs[start:stop], rec_rng, contacts=contacts)
                # row i of snapshot s is s * 2n + i in the outcome
                rec = np.bincount(outcome.recommended[:, 0] // (2 * n), minlength=len(adj))
                acc = np.bincount(outcome.accepted[:, 0] // (2 * n), minlength=len(adj))
                inter += acc
                recommended += rec.tolist()
                accepted += acc.tolist()
            inter_edges += inter.tolist()
            if stop < T:
                adj, contacts = drawn.result()
    columns = zip(p_rs, p_bs, cs, inter_edges, recommended, accepted)
    return [
        TraceRecord(t, p_r, p_b, c, segregation_value(e, n, n), e, r, a)
        for t, (p_r, p_b, c, e, r, a) in enumerate(columns)
    ]


def _draw_stack(tables: np.ndarray, n: int, rng: np.random.Generator, passes: bool):
    """One stack of snapshots, with its cross contacts if a pass will read them (else None).

    Both are looked up on their modules, so that a rebinding of either sees each call.
    """
    adj = blockmodel.sample_adjacency(tables, n, rng)
    return adj, graph.cross_contacts(adj, n) if passes else None


def format_float(x: float) -> str:
    """Locale-independent text form with 9 significant digits."""
    return format(float(x), ".9g")


def write_rows(fp: IO[str], columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header ``columns``, then ``rows``, by the cell rule of every output CSV.

    A float cell is written by ``format_float``, None as an empty cell and
    anything else as it is; lines end in ``\\n``.
    """
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([format_float(x) if isinstance(x, float) else x for x in row] for row in rows)


def write_trace_csv(records: Sequence[TraceRecord], fp: IO[str]) -> None:
    """Trace as CSV with the ``TRACE_COLUMNS`` header, by ``write_rows``."""
    write_rows(fp, TRACE_COLUMNS, records)


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
    if not 0.0 <= real("gamma", gamma) < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    integer("action_grid_size", action_grid_size, 2)
    integer("horizon", horizon, 1)

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

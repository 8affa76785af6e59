"""Opinion reinforcement model: geometry, micro-steps, and traces."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegame import opinion
from edgegame.opinion import (
    OpinionConfig,
    OpinionState,
    init_geometric_graph,
    init_state,
    interaction_reward,
    measure,
    run_opinion,
    step_opinion,
    tail_mean_segregation,
    write_opinion_csv,
)
from edgegame.seeding import substream


class ScriptedRng:
    """Feeds step_opinion a fixed sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, *args):
        return self.values.pop(0)


def tiny_state(opinions, q_plus, q_minus, neighbors):
    edges = sorted(
        {(min(a, b), max(a, b)) for a, nbrs in enumerate(neighbors) for b in nbrs}
    )
    return OpinionState(
        neighbors=[list(nb) for nb in neighbors],
        edges=np.array(edges, dtype=np.intp).reshape(-1, 2),
        opinions=list(opinions),
        q_plus=list(q_plus),
        q_minus=list(q_minus),
    )


# --- geometry -----------------------------------------------------------------


def test_geometric_graph_extremes():
    rng = np.random.default_rng(0)
    neighbors, edges = init_geometric_graph(12, np.sqrt(2.0), rng)
    assert len(edges) == 12 * 11 // 2  # complete
    neighbors, edges = init_geometric_graph(12, 1e-9, rng)
    assert edges.shape == (0, 2)
    assert all(not nb for nb in neighbors)
    for radius in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="radius"):
            init_geometric_graph(5, radius, rng)


def test_geometric_graph_mean_degree():
    n, radius = 100, 0.175
    rng = np.random.default_rng(123)
    degrees = []
    for _ in range(100):
        neighbors, _ = init_geometric_graph(n, radius, rng)
        degrees.append(np.mean([len(nb) for nb in neighbors]))
    mean = float(np.mean(degrees))
    approx = n * np.pi * radius**2  # interior approximation, 9.62
    se = float(np.std(degrees, ddof=1) / np.sqrt(len(degrees)))
    assert abs(mean - approx) <= 0.25 * approx + 3 * se


def test_geometric_graph_symmetry():
    rng = np.random.default_rng(7)
    neighbors, edges = init_geometric_graph(30, 0.3, rng)
    for a, b in edges:
        assert b in neighbors[a] and a in neighbors[b]


# --- rewards and single steps ----------------------------------------------------


def test_interaction_reward_values():
    assert interaction_reward(1, 1, 0, 0.9, True) == 1.0
    assert interaction_reward(1, 1, 5, 0.9, True) == 1.0  # allies ignored on agreement
    assert interaction_reward(1, -1, 0, 0.9, True) == -1.0
    assert interaction_reward(1, -1, 2, 0.9, True) == pytest.approx(0.8)
    assert interaction_reward(1, -1, 2, 0.9, False) == -1.0
    assert interaction_reward(-1, 1, 3, 0.5, True) == pytest.approx(0.5)


def test_step_agreement_updates_confidence():
    # agent 0 expresses +1 to agreeing neighbor 1
    state = tiny_state([1, 1], [0.2, 0.0], [0.0, 0.0], [[1], [0]])
    cfg = OpinionConfig(n_agents=2, exploration=0.1, with_recommender=False, seed=0)
    rng = ScriptedRng([0.0, 0.0, 0.95])  # pick agent 0, neighbor slot 0, no flip
    step_opinion(state, cfg, rng)
    assert state.q_plus[0] == pytest.approx(0.95 * 0.2 + 0.05 * 1.0)
    assert state.q_minus[0] == 0.0
    assert state.opinions[0] == 1


def test_step_disagreement_without_recommender():
    # Q_i(+1) = 0.2 -> 0.95 * 0.2 - 0.05 = 0.14
    state = tiny_state([1, -1], [0.2, 0.0], [0.0, 0.5], [[1], [0]])
    cfg = OpinionConfig(n_agents=2, with_recommender=False, seed=0)
    rng = ScriptedRng([0.0, 0.0, 0.95])
    step_opinion(state, cfg, rng)
    assert state.q_plus[0] == pytest.approx(0.14)


def test_step_disagreement_with_allies():
    # listener 1 disagrees but has two +1 neighbors besides the speaker:
    # reward = -1 + 0.9 * 2 = 0.8
    neighbors = [[1], [0, 2, 3], [1], [1]]
    state = tiny_state([1, -1, 1, 1], [0.2, 0, 0, 0], [0, 0.5, 0, 0], neighbors)
    cfg = OpinionConfig(n_agents=4, acceptance=0.9, with_recommender=True, seed=0)
    rng = ScriptedRng([0.0, 0.0, 0.95])
    step_opinion(state, cfg, rng)
    assert state.q_plus[0] == pytest.approx(0.95 * 0.2 + 0.05 * 0.8)


def test_step_exploration_flips_expression():
    state = tiny_state([1, 1], [0.4, 0.0], [0.0, 0.0], [[1], [0]])
    cfg = OpinionConfig(n_agents=2, exploration=0.1, with_recommender=False, seed=0)
    rng = ScriptedRng([0.0, 0.0, 0.05])  # third draw below exploration rate
    step_opinion(state, cfg, rng)
    assert state.opinions[0] == -1  # voiced the less favored opinion
    assert state.q_plus[0] == 0.4  # only the expressed entry moves
    assert state.q_minus[0] == pytest.approx(0.05 * -1.0)


def test_isolated_agent_is_noop():
    state = tiny_state([1, 1, -1], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [[], [2], [1]])
    cfg = OpinionConfig(n_agents=3, with_recommender=False, seed=0)
    rng = ScriptedRng([0.0])  # selects agent 0, which has no neighbors
    step_opinion(state, cfg, rng)
    assert state.opinions == [1, 1, -1]
    assert state.q_plus == [0.1, 0.2, 0.3]


def test_opinion_changes_at_most_one_agent_per_step():
    cfg = OpinionConfig(n_agents=40, horizon=1, seed=5)
    rng = np.random.default_rng(3)
    state = init_state(cfg, rng)
    for _ in range(500):
        before = list(state.opinions)
        step_opinion(state, cfg, rng)
        changed = sum(1 for a, b in zip(before, state.opinions) if a != b)
        assert changed <= 1


def test_confidences_stay_within_reward_range():
    # each update is a convex mix of the old value and a reward, so the
    # confidences stay inside [min(q0, -1), max(q0, max attainable reward)]
    cfg = OpinionConfig(n_agents=30, seed=2)
    rng = np.random.default_rng(9)
    state = init_state(cfg, rng)
    max_degree = max(len(nb) for nb in state.neighbors)
    upper = max(0.5, cfg.acceptance * (max_degree - 1) - 1.0, 1.0)
    for _ in range(2000):
        step_opinion(state, cfg, rng)
        values = state.q_plus + state.q_minus
        assert min(values) >= -1.0
        assert max(values) <= upper


# --- traces -------------------------------------------------------------------


def test_unanimous_start_stays_segregated_without_exploration():
    cfg = OpinionConfig(n_agents=25, exploration=0.0, horizon=400, record_every=50, seed=4)
    rng_init = np.random.default_rng(10)
    state = init_state(cfg, rng_init)
    for i in range(cfg.n_agents):
        state.q_plus[i] = 0.4
        state.q_minus[i] = -0.4
        state.opinions[i] = 1
    rng = np.random.default_rng(11)
    first = measure(state).segregation
    assert first == 1.0  # one empty opinion class
    for _ in range(cfg.horizon):
        step_opinion(state, cfg, rng)
    assert measure(state).segregation == 1.0


def test_zero_exploration_fixed_preferences_constant_segregation():
    cfg = OpinionConfig(n_agents=20, exploration=0.0, with_recommender=False, seed=1)
    rng = np.random.default_rng(12)
    state = init_state(cfg, rng)
    # strong unanimous convictions aligned with current opinions
    for i in range(cfg.n_agents):
        if state.opinions[i] == 1:
            state.q_plus[i], state.q_minus[i] = 5.0, -5.0
        else:
            state.q_plus[i], state.q_minus[i] = -5.0, 5.0
    values = set()
    for _ in range(300):
        step_opinion(state, cfg, rng)
        values.add(measure(state).segregation)
    assert len(values) == 1


def test_run_opinion_trace_shape_and_determinism():
    cfg = OpinionConfig(horizon=2000, record_every=100, seed=21)
    r1 = run_opinion(cfg)
    r2 = run_opinion(cfg)
    assert r1 == r2
    assert len(r1) == 21  # initial record plus horizon / record_every
    assert r1[0].step == 0
    assert r1[-1].step == 2000
    assert all(0.0 <= r.segregation <= 1.0 for r in r1)
    assert all(r.n_plus + r.n_minus == cfg.n_agents for r in r1)


def test_edgeless_contact_graph_is_fully_segregated():
    # no pair lies within the radius: no edge crosses the opinion split and
    # every micro-step is a no-op
    records = run_opinion(OpinionConfig(n_agents=5, radius=1e-9, horizon=20, record_every=5))
    assert [r.step for r in records] == [0, 5, 10, 15, 20]
    assert all(r.segregation == 1.0 for r in records)
    assert all(r.mean_q_gap == records[0].mean_q_gap for r in records)


# --- the fast loop against step_opinion ------------------------------------------


def reference_run_opinion(cfg):
    """run_opinion as one step_opinion call per micro-step.

    Returns the records and the ``steps`` generator where the loop left it.
    """
    state = init_state(cfg, substream(cfg.seed, "opinion", "init"))
    rng = substream(cfg.seed, "opinion", "steps")
    records = [measure(state)]
    for s in range(1, cfg.horizon + 1):
        step_opinion(state, cfg, rng)
        if s % cfg.record_every == 0:
            records.append(measure(state))
    return records, rng


class RecordingGenerator:
    """Passes ``random(size)`` calls on to a generator and records each size."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def assert_matches_reference(cfg, chunk=opinion._CHUNK):
    """run_opinion, with buffers of at most ``chunk``, agrees with the reference draw for draw.

    Returns the sizes of the buffers run_opinion drew.
    """
    made = {}

    def recording(seed, *labels):
        made[labels] = RecordingGenerator(substream(seed, *labels))
        return made[labels]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opinion, "substream", recording)
        mp.setattr(opinion, "_CHUNK", chunk)
        records = run_opinion(cfg)
    expected, rng = reference_run_opinion(cfg)
    assert records == expected
    steps = made[("opinion", "steps")]
    # both generators stand at the same point of their stream
    assert steps.rng.random(4).tolist() == rng.random(4).tolist()
    assert all(1 <= size <= chunk for size in steps.sizes)
    return steps.sizes


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n_agents=st.integers(2, 12),
    radius=st.floats(1e-9, 1.5),
    exploration=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    acceptance=st.floats(0.0, 1.0),
    learning_rate=st.floats(0.01, 1.0),
    with_recommender=st.booleans(),
    horizon=st.integers(1, 80),
    record_every=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([2, 3, 5, opinion._CHUNK]),
)
def test_run_opinion_matches_step_opinion_on_small_configs(chunk, **params):
    assert_matches_reference(OpinionConfig(**params), chunk)


def test_run_opinion_matches_step_opinion_past_one_chunk():
    chunk = opinion._CHUNK
    cfg = OpinionConfig(n_agents=12, radius=0.4, horizon=3 * chunk + 5, record_every=500, seed=6)
    sizes = assert_matches_reference(cfg)
    assert sizes[0] == chunk and len(sizes) > 3


def test_isolated_speakers_on_a_buffer_boundary():
    # every speaker is isolated and takes one draw, so each buffer ends on a
    # step boundary and the next step opens a new one, sized to what is left
    chunk = opinion._CHUNK
    cfg = OpinionConfig(n_agents=6, radius=1e-9, horizon=2 * chunk + 3, record_every=chunk)
    assert assert_matches_reference(cfg) == [chunk, chunk, 3]
    # isolated agents next to linked ones, with buffers of two and three draws
    cfg = OpinionConfig(n_agents=12, radius=0.25, horizon=400, record_every=7, seed=3)
    assert min(len(nb) for nb in init_state(cfg, substream(3, "opinion", "init")).neighbors) == 0
    for chunk in (2, 3):
        assert_matches_reference(cfg, chunk)


def test_run_opinion_matches_step_opinion_recording_every_step():
    for with_recommender in (True, False):
        cfg = OpinionConfig(
            n_agents=30, radius=0.3, exploration=0.5, horizon=600, record_every=1,
            with_recommender=with_recommender, seed=8,
        )
        assert_matches_reference(cfg)


def test_recommender_holds_tail_segregation_down_long_run():
    # long-run form of the comparison: mean of per-seed tails, 20 seeds
    seeds = range(20)
    with_tails = []
    without_tails = []
    for seed in seeds:
        base = dict(horizon=200_000, seed=seed)
        with_tails.append(
            tail_mean_segregation(run_opinion(OpinionConfig(with_recommender=True, **base)))
        )
        without_tails.append(
            tail_mean_segregation(run_opinion(OpinionConfig(with_recommender=False, **base)))
        )
    assert float(np.mean(with_tails)) < float(np.mean(without_tails))


def test_opinion_csv_format():
    cfg = OpinionConfig(horizon=200, record_every=100, seed=8)
    records = run_opinion(cfg)
    buf = io.StringIO()
    write_opinion_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,segregation,n_plus,n_minus,mean_q_gap"
    assert len(lines) == len(records) + 1


def test_config_validation():
    with pytest.raises(ValueError):
        OpinionConfig(n_agents=1)
    with pytest.raises(ValueError):
        OpinionConfig(exploration=1.5)
    with pytest.raises(ValueError):
        OpinionConfig(acceptance=-0.1)

"""Protocol runs, the switching acceptance chain, and the planning check."""

import copy
import io

import numpy as np
import pytest

from edgegame import dynamics, opinion
from edgegame.dynamics import (
    ProtocolConfig,
    SemiMarkovChain,
    format_float,
    run_protocol,
    step_semi_markov,
    verify_myopic_optimality,
    write_trace_csv,
)
from edgegame.game import nash_equilibrium
from edgegame.opinion import OpinionConfig, run_opinion
from edgegame.seeding import substream


def two_state_chain(holding=10):
    return SemiMarkovChain([0.6, 0.9], [[0.0, 1.0], [1.0, 0.0]], holding)


# --- chain ------------------------------------------------------------------


def test_chain_validation():
    with pytest.raises(ValueError):
        SemiMarkovChain([], [[1.0]], 10)
    with pytest.raises(ValueError):
        SemiMarkovChain([0.5, 1.2], [[0.5, 0.5], [0.5, 0.5]], 10)
    with pytest.raises(ValueError):
        SemiMarkovChain([0.5, 0.6], [[0.6, 0.5], [0.5, 0.5]], 10)
    with pytest.raises(ValueError):
        SemiMarkovChain([0.5, 0.6], [[0.5, 0.5], [0.5, 0.5]], 0)
    with pytest.raises(ValueError):
        SemiMarkovChain([0.5, 0.6], [[0.5, 0.5], [0.5, 0.5]], 10, initial_state=2)
    # NaN passes both the sign test and the row-sum test
    with pytest.raises(ValueError, match=r"\btransition\b"):
        SemiMarkovChain([0.6, 0.9], [[np.nan, np.nan], [0.5, 0.5]], 1)


def test_chain_holds_between_jump_instants():
    chain = SemiMarkovChain([0.2, 0.9], [[0.0, 1.0], [1.0, 0.0]], 100)
    rng = np.random.default_rng(0)
    assert step_semi_markov(chain, 0, 49, rng) == 0
    # no draw between jump instants
    assert rng.random() == np.random.default_rng(0).random()


def test_identity_matrix_is_absorbing():
    chain = SemiMarkovChain([0.2, 0.9], [[1.0, 0.0], [0.0, 1.0]], 100)
    rng = np.random.default_rng(0)
    assert step_semi_markov(chain, 0, 99, rng) == 0
    # one draw at a jump instant, even from a degenerate row
    expected = np.random.default_rng(0)
    expected.random()
    assert rng.random() == expected.random()


def test_permutation_chain_alternates_exactly():
    chain = two_state_chain(holding=10)
    rng = np.random.default_rng(1)
    values = []
    state = chain.initial_state
    for t in range(40):
        values.append(chain.states[state])
        state = step_semi_markov(chain, state, t, rng)
    assert values == [0.6] * 10 + [0.9] * 10 + [0.6] * 10 + [0.9] * 10


def test_chain_copy_does_not_share_state():
    # the chain keeps no current state: a jump returns the next index and
    # leaves the chain, and any copy of it, as it was
    chain = two_state_chain()
    clone = copy.deepcopy(chain)
    assert step_semi_markov(chain, chain.initial_state, 9, np.random.default_rng(2)) == 1
    assert chain.initial_state == 0
    assert clone.initial_state == 0
    assert step_semi_markov(clone, clone.initial_state, 9, np.random.default_rng(2)) == 1


# --- protocol configs ---------------------------------------------------------


def test_protocol_config_validation():
    # one field picks the protocol; a fixed acceptance must be a probability
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="acceptance"):
            ProtocolConfig(acceptance=bad)
    for good in (None, 0.0, 1.0, two_state_chain()):
        assert ProtocolConfig(acceptance=good).acceptance is good


# --- protocol runs -------------------------------------------------------------


def test_protocol1_segregates_in_two_steps():
    for seed in range(5):
        cfg = ProtocolConfig(n_per_community=20, horizon=12, seed=seed)
        trace = run_protocol(cfg)
        assert len(trace) == 13
        for r in trace:
            if r.t >= 2:
                assert (r.p_r, r.p_b) == (1.0, 1.0)
                assert r.inter_edges == 0
                assert r.segregation == 1.0
            assert r.acceptance_probability is None
            assert r.recommended is None and r.accepted is None


def test_protocol2_converges_to_equilibrium():
    cfg = ProtocolConfig(
        n_per_community=20,
        horizon=20,
        acceptance=0.8,
        seed=11,
    )
    trace = run_protocol(cfg)
    for r in trace:
        if r.t >= 10:
            assert abs(r.p_r - 0.75) <= 1e-3
            assert abs(r.p_b - 0.75) <= 1e-3
        assert r.acceptance_probability == 0.8
        assert r.recommended is not None and r.accepted is not None


def test_protocol2_boundary_acceptance_segregates():
    cfg = ProtocolConfig(
        n_per_community=10,
        horizon=10,
        acceptance=0.5,
        seed=3,
    )
    trace = run_protocol(cfg)
    assert (trace[-1].p_r, trace[-1].p_b) == (1.0, 1.0)
    assert all((r.p_r, r.p_b) == (1.0, 1.0) for r in trace if r.t >= 2)


def test_alternation_only_one_player_moves_per_step():
    cfg = ProtocolConfig(
        n_per_community=10,
        horizon=15,
        acceptance=0.9,
        seed=5,
    )
    trace = run_protocol(cfg)
    for prev, cur in zip(trace, trace[1:]):
        if cur.t % 2 == 1:
            assert cur.p_b == prev.p_b
        else:
            assert cur.p_r == prev.p_r


def test_traces_are_deterministic():
    def make_cfg():
        return ProtocolConfig(
            n_per_community=10,
            horizon=60,
            acceptance=two_state_chain(holding=20),
            seed=42,
        )

    t1 = run_protocol(make_cfg())
    t2 = run_protocol(make_cfg())
    assert t1 == t2
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_trace_csv(t1, buf1)
    write_trace_csv(t2, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_rerunning_same_config_object_is_stable():
    # the chain inside the config holds no state, so no run leaks into the
    # next, not even a run of another config that shares the chain
    cfg = ProtocolConfig(
        n_per_community=8,
        horizon=40,
        acceptance=two_state_chain(holding=10),
        seed=9,
    )
    first = run_protocol(cfg)
    run_protocol(ProtocolConfig(horizon=15, acceptance=cfg.acceptance, seed=10))
    assert run_protocol(cfg) == first


# Uniforms drawn from each named substream over two short runs. A change
# to the draw order or to the number of draws shows here by substream.
PINNED_DRAWS = {
    "protocol2": (
        dynamics,
        lambda: run_protocol(ProtocolConfig(
            n_per_community=20, horizon=6, acceptance=0.8, seed=3)),
        {("init",): 2, ("graph",): 11200, ("recommend",): 1823, ("chain",): 0},
    ),
    "opinion": (
        opinion,
        lambda: run_opinion(OpinionConfig(n_agents=30, horizon=300, record_every=50, seed=3)),
        {("opinion", "init"): 120, ("opinion", "steps"): 854},
    ),
}


@pytest.mark.parametrize("run", sorted(PINNED_DRAWS))
def test_substream_draw_counts_are_pinned(run, monkeypatch):
    # each generator the run takes from substream ends where a fresh one
    # stands after the pinned number of doubles (one PCG64 step each)
    module, call, pinned = PINNED_DRAWS[run]
    made = []

    def recording(seed, *labels):
        rng = substream(seed, *labels)
        made.append((seed, labels, rng))
        return rng

    monkeypatch.setattr(module, "substream", recording)
    call()
    assert sorted(labels for _, labels, _ in made) == sorted(pinned)
    for seed, labels, rng in made:
        fresh = substream(seed, *labels)
        fresh.bit_generator.advance(pinned[labels])
        assert rng.bit_generator.state == fresh.bit_generator.state, labels


def test_protocol3_tracks_switching_equilibrium():
    chain = SemiMarkovChain(
        [0.6, 0.8, 1.0],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        holding_time=50,
    )
    cfg = ProtocolConfig(n_per_community=10, horizon=250, acceptance=chain, seed=1)
    trace = run_protocol(cfg)
    for r in trace:
        window_step = r.t % 50
        if window_step >= 10:
            target = nash_equilibrium(r.acceptance_probability).strategy.p_r
            assert abs(r.p_r - target) <= 1e-3
            assert abs(r.p_b - target) <= 1e-3


def test_trace_csv_format():
    cfg = ProtocolConfig(n_per_community=5, horizon=2, seed=0)
    buf = io.StringIO()
    write_trace_csv(run_protocol(cfg), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,p_r,p_b,c,segregation,inter_edges,recommended,accepted"
    # no recommender: c and the count columns are empty strings
    assert lines[2].startswith("1,1,")
    fields = lines[2].split(",")
    assert fields[3] == "" and fields[6] == "" and fields[7] == ""


def test_format_float_nine_significant_digits():
    assert format_float(0.75) == "0.75"
    assert format_float(1.0) == "1"
    assert format_float(1 / 3) == "0.333333333"
    assert format_float(0.123456789123) == "0.123456789"


# --- planning check -------------------------------------------------------------


def test_myopic_gap_zero_at_gamma_zero():
    chain = SemiMarkovChain([0.6, 0.9], [[0.5, 0.5], [0.5, 0.5]], 1)
    report = verify_myopic_optimality(chain, 0.0, 201, 50)
    assert report.gap == 0.0


def test_myopic_single_state_reduces_to_static_game():
    chain = SemiMarkovChain([0.8], [[1.0]], 100)
    report = verify_myopic_optimality(chain, 0.9, 201, 50)
    assert report.myopic_actions == (0.75,)
    assert abs(report.gap) <= 1e-12 * max(1.0, abs(report.dp_value))


def test_myopic_two_state_chain_gap():
    chain = SemiMarkovChain([0.6, 0.9], [[0.5, 0.5], [0.5, 0.5]], 1)
    report = verify_myopic_optimality(chain, 0.9, 201, 50)
    assert abs(report.gap) <= 1e-3 * abs(report.dp_value)
    assert report.dp_value >= report.myopic_value - 1e-12


def test_myopic_validation():
    chain = two_state_chain()
    with pytest.raises(ValueError):
        verify_myopic_optimality(chain, 1.0, 201, 50)
    with pytest.raises(ValueError):
        verify_myopic_optimality(chain, 0.5, 1, 50)
    with pytest.raises(ValueError):
        verify_myopic_optimality(chain, 0.5, 201, 0)

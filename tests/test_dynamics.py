"""Protocol runs, the switching acceptance chain, and the planning check."""

import copy
import io
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgegame import dynamics, opinion
from edgegame.blockmodel import StrategyPair, block_matrix
from edgegame.dynamics import (
    ProtocolConfig,
    SemiMarkovChain,
    TraceRecord,
    format_float,
    run_protocol,
    step_semi_markov,
    verify_myopic_optimality,
    write_trace_csv,
)
from edgegame.game import nash_equilibrium
from edgegame.opinion import OpinionConfig, run_opinion
from edgegame.seeding import substream
from oracles import SUBSTREAMS, reference_run_protocol


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
    # a state off the chain, or not an int, is refused before any draw
    chain = SemiMarkovChain([0.6, 0.9], [[1.0, 0.0], [0.0, 1.0]], 1)
    for state in (-1, 2, True):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"^state\b"):
            step_semi_markov(chain, state, 0, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


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


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_chain_without_transition_is_uniform(k):
    # the same doubles as the matrix of 1/k written out row by row
    chain = SemiMarkovChain([0.5] * k, None, 1)
    written = SemiMarkovChain([0.5] * k, [[1.0 / k] * k for _ in range(k)], 1)
    assert chain.transition.tobytes() == written.transition.tobytes()
    assert chain._cum.tobytes() == written._cum.tobytes()


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


@pytest.mark.parametrize(
    "field, value", [("n_per_community", 20.5), ("horizon", 2.5), ("n_per_community", True)]
)
def test_protocol_config_sizes_must_be_ints(field, value):
    with pytest.raises(ValueError, match=field):
        ProtocolConfig(**{field: value})


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
            assert r.c is None
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
        assert r.c == 0.8
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


PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def acceptances(draw):
    """None (P1), a probability (P2), or a chain of up to three states (P3)."""
    kind = draw(st.sampled_from(["P1", "P2", "P3"]))
    if kind == "P1":
        return None
    if kind == "P2":
        return draw(PROBABILITY)
    k = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k * k, max_size=k * k)))
    transition = weights.reshape(k, k) / weights.reshape(k, k).sum(axis=1, keepdims=True)
    states = draw(st.lists(PROBABILITY, min_size=k, max_size=k))
    return SemiMarkovChain(states, transition, draw(st.integers(1, 20)), draw(st.integers(0, k - 1)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 30),
    horizon=st.integers(1, 160),
    acceptance=acceptances(),
    seed=st.integers(0, 2**32 - 1),
)
# runs of several stacks, with each protocol
@example(n=26, horizon=160, acceptance=0.8, seed=1)
@example(n=30, horizon=160, acceptance=two_state_chain(holding=7), seed=2)
@example(n=29, horizon=150, acceptance=None, seed=3)
# the benchmark's desk-scale shape, one stack
@example(n=20, horizon=20, acceptance=0.9, seed=5)
def test_run_protocol_matches_the_step_by_step_reference(n, horizon, acceptance, seed):
    # the records, and where each substream's generator ends
    cfg = ProtocolConfig(n_per_community=n, horizon=horizon, acceptance=acceptance, seed=seed)
    made = {}

    def recording(seed, label):
        made[label] = substream(seed, label)
        return made[label]

    with mock.patch.object(dynamics, "substream", recording):
        records = run_protocol(cfg)
    expected, rngs = reference_run_protocol(cfg)
    assert records == expected
    assert sorted(made) == sorted(SUBSTREAMS)
    for label in SUBSTREAMS:
        assert made[label].bit_generator.state == rngs[label].bit_generator.state, label


# The (n, horizon) of each example above, and whether it spans several stacks,
# so that a new STACK_CELLS cannot quietly make the multi-stack ones one stack.
@pytest.mark.parametrize(
    "n, horizon, several",
    [(26, 160, True), (30, 160, True), (29, 150, True), (20, 20, False)],
)
def test_the_reference_examples_span_the_stacks_they_should(n, horizon, several):
    # one sample_adjacency draw per stack; how many stacks depends on n and horizon alone
    sampler = mock.Mock(wraps=dynamics.blockmodel.sample_adjacency)
    with mock.patch.object(dynamics.blockmodel, "sample_adjacency", sampler):
        run_protocol(ProtocolConfig(n_per_community=n, horizon=horizon, seed=0))
    assert (sampler.call_count >= 2) == several, sampler.call_count


# A run of several stacks draws each stack after the first on one worker thread.
SEVERAL_STACKS = ProtocolConfig(n_per_community=30, horizon=160, acceptance=0.8, seed=2)


def test_a_run_of_several_stacks_draws_on_one_worker_that_ends_with_it():
    real, threads = dynamics.blockmodel.sample_adjacency, []

    def recording(tables, n, rng):
        threads.append(threading.current_thread())
        return real(tables, n, rng)

    before = threading.active_count()
    with mock.patch.object(dynamics.blockmodel, "sample_adjacency", recording):
        run_protocol(SEVERAL_STACKS)
        assert threading.active_count() == before
        assert threads[0] is threading.current_thread()
        assert len(threads) >= 3 and len(set(threads[1:])) == 1 and threads[1] is not threads[0]
        # one stack: no thread
        threads.clear()
        run_protocol(ProtocolConfig(n_per_community=20, horizon=20, acceptance=0.8, seed=2))
        assert threads == [threading.current_thread()]


def test_an_error_in_a_worker_draw_is_raised_by_the_run():
    real, calls = dynamics.blockmodel.sample_adjacency, []

    def failing(tables, n, rng):
        calls.append(threading.current_thread())
        if len(calls) == 2:
            raise RuntimeError("the second draw failed")
        return real(tables, n, rng)

    before = threading.active_count()
    with mock.patch.object(dynamics.blockmodel, "sample_adjacency", failing):
        with pytest.raises(RuntimeError, match="the second draw failed"):
            run_protocol(SEVERAL_STACKS)
    assert len(calls) == 2 and calls[1] is not threading.current_thread()
    assert threading.active_count() == before


def test_an_error_in_the_pass_while_a_draw_is_pending_is_raised_by_the_run():
    real, calls = dynamics.recommend_stack, []

    def failing(adj, cs, rng, contacts=None):
        calls.append(len(cs))
        if len(calls) == 2:
            raise RuntimeError("the second pass failed")
        return real(adj, cs, rng, contacts=contacts)

    before = threading.active_count()
    with mock.patch.object(dynamics, "recommend_stack", failing):
        with pytest.raises(RuntimeError, match="the second pass failed"):
            run_protocol(SEVERAL_STACKS)
    assert len(calls) == 2
    assert threading.active_count() == before


def test_each_stack_finds_its_cross_contacts_on_the_thread_that_draws_it():
    real_draw, real_contacts = dynamics.blockmodel.sample_adjacency, dynamics.graph.cross_contacts
    draws, contacts = [], []

    def drawing(tables, n, rng):
        draws.append(threading.current_thread())
        return real_draw(tables, n, rng)

    def finding(adj, n):
        contacts.append(threading.current_thread())
        return real_contacts(adj, n)

    with mock.patch.object(dynamics.blockmodel, "sample_adjacency", drawing), mock.patch.object(
        dynamics.graph, "cross_contacts", finding
    ):
        run_protocol(SEVERAL_STACKS)
    assert len(draws) >= 3 and contacts == draws
    assert contacts[0] is threading.current_thread()
    assert threading.current_thread() not in contacts[1:]


def test_an_error_in_a_worker_contact_search_is_raised_by_the_run():
    real, calls = dynamics.graph.cross_contacts, []

    def failing(adj, n):
        calls.append(threading.current_thread())
        if len(calls) == 2:
            raise RuntimeError("the second contact search failed")
        return real(adj, n)

    before = threading.active_count()
    with mock.patch.object(dynamics.graph, "cross_contacts", failing):
        with pytest.raises(RuntimeError, match="the second contact search failed"):
            run_protocol(SEVERAL_STACKS)
    assert len(calls) == 2 and calls[1] is not threading.current_thread()
    assert threading.active_count() == before


def test_a_run_without_the_recommender_finds_no_contacts():
    # several stacks of P1: the executor draws and finds nothing
    cfg = ProtocolConfig(n_per_community=30, horizon=160, acceptance=None, seed=2)
    contacts = mock.Mock(wraps=dynamics.graph.cross_contacts)
    sampler = mock.Mock(wraps=dynamics.blockmodel.sample_adjacency)
    with mock.patch.object(dynamics.graph, "cross_contacts", contacts), mock.patch.object(
        dynamics.blockmodel, "sample_adjacency", sampler
    ):
        run_protocol(cfg)
    assert sampler.call_count >= 3 and contacts.call_count == 0


def test_concurrent_runs_match_the_reference_under_a_short_switch_interval():
    # three runs at once, each with its worker: six threads on fewer cores,
    # switching every 10 microseconds
    cfgs = [
        SEVERAL_STACKS,
        ProtocolConfig(n_per_community=100, horizon=6, acceptance=0.9, seed=5),
        ProtocolConfig(n_per_community=26, horizon=160, acceptance=two_state_chain(holding=7), seed=1),
    ]
    results = [None] * len(cfgs)

    def run(i):
        results[i] = run_protocol(cfgs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for cfg, records in zip(cfgs, results):
        assert records == reference_run_protocol(cfg)[0]


def test_no_draw_overlaps_a_count_and_the_tables_are_drawn_in_stack_order():
    # layerbench's tracer keeps one stack of open spans: a draw on the worker
    # may overlap the pass, which it does not trace, but no traced call
    events, tables = [], []

    def spanned(name, fn):
        def wrapper(*args):
            events.append(("enter", name))
            try:
                return fn(*args)
            finally:
                events.append(("exit", name))

        return wrapper

    real = dynamics.blockmodel.sample_adjacency

    def drawing(table, n, rng):
        tables.append(table)
        return real(table, n, rng)

    sampler = spanned("sample_adjacency", drawing)
    counter = spanned("inter_edge_count", dynamics.inter_edge_count)
    with mock.patch.object(dynamics.blockmodel, "sample_adjacency", sampler), mock.patch.object(
        dynamics, "inter_edge_count", counter
    ):
        records = run_protocol(SEVERAL_STACKS)
    one_stack = [
        ("enter", "sample_adjacency"),
        ("exit", "sample_adjacency"),
        ("enter", "inter_edge_count"),
        ("exit", "inter_edge_count"),
    ]
    assert len(tables) >= 3 and events == one_stack * len(tables)
    n = SEVERAL_STACKS.n_per_community
    planned = [block_matrix(StrategyPair(r.p_r, r.p_b), n) for r in records]
    assert np.array_equal(np.concatenate(tables), np.stack(planned))


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
            target = nash_equilibrium(r.c).strategy.p_r
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
    # an int acceptance is written as it is, and None counts as empty cells
    records = [
        TraceRecord(1, 0.75, 1 / 3, 1, 0.5, 7, 4, 2),
        TraceRecord(2, 1.0, 1.0, None, 1.0, 0, None, None),
    ]
    buf = io.StringIO()
    write_trace_csv(records, buf)
    assert buf.getvalue().splitlines()[1:] == ["1,0.75,0.333333333,1,0.5,7,4,2", "2,1,1,,1,0,,"]


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

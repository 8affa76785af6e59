"""Recommender pass: proposal probabilities, acceptance, invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgegame.blockmodel import StrategyPair, block_matrix, sample_adjacency, sample_snapshot
from edgegame.graph import DirectedGraph, cross_contacts, two_hop_support
from edgegame.recommender import (
    _proposals,
    recommend_stack,
    recommendation_probability,
    run_recommender,
)
from oracles import RecordingGenerator, support

EXAMPLE_EDGES = [(4, 5), (4, 7), (0, 1), (4, 0)]  # n=4 picture graph


def pairs(rows):
    """An outcome's (k, 2) array as a list of (i, j) tuples."""
    return [tuple(p) for p in rows.tolist()]


def example_graph():
    return DirectedGraph(4, EXAMPLE_EDGES)


def test_probability_basic_values():
    # one supporting contact at n=3 gives 1/2
    g = DirectedGraph(3, [(3, 4), (3, 0)])
    assert support(g, 0, 4) == 1
    assert recommendation_probability(g, 0, 4) == 0.5
    # zero support
    assert recommendation_probability(DirectedGraph(3), 0, 4) == 0.0


def test_probability_saturates_at_one():
    # all n-1 in-group friends of j follow i: ratio exactly 1
    n = 4
    edges = [(jp, 7) for jp in range(4, 7)]
    edges += [(0, jp) for jp in range(4, 7)]
    g = DirectedGraph(n, edges)
    assert support(g, 0, 7) == n - 1
    assert recommendation_probability(g, 0, 7) == 1.0
    # both directions double the support; still clamped to 1
    g.add_edges((jp, 0) for jp in range(4, 7))
    assert support(g, 0, 7) == 2 * (n - 1)
    assert recommendation_probability(g, 0, 7) == 1.0


def test_probability_contract_errors():
    g = example_graph()
    with pytest.raises(ValueError):
        recommendation_probability(g, 4, 0)  # edge exists
    with pytest.raises(ValueError):
        recommendation_probability(g, 0, 1)  # same community
    # range is checked first, then community, then the existing edge
    for i, j in ((0, 8), (0, -1), (8, 0)):
        with pytest.raises(ValueError, match="out of range"):
            recommendation_probability(g, i, j)
    with pytest.raises(ValueError, match="different communities"):
        recommendation_probability(g, 0, 1)  # (0, 1) is also an edge


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 7),
    density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_probability_matches_the_support_matrix(n, density, seed):
    # every eligible cross pair's probability is its two_hop_support count
    # over n - 1, clamped to 1, read from the full matrix
    adj = np.random.default_rng(seed).random((2 * n, 2 * n)) < density
    np.fill_diagonal(adj, False)
    g = DirectedGraph.from_adjacency(adj, n)
    full = two_hop_support(g.adj, n)
    for i in range(2 * n):
        for j in range(n, 2 * n) if i < n else range(n):
            if g.has_edge(i, j):
                continue
            count = int(full[i, j])
            expected = min(1.0, count * (1.0 / (n - 1))) if count else 0.0
            assert recommendation_probability(g, i, j) == expected


@pytest.mark.parametrize("acceptance", [-0.1, 1.5, float("nan")])
def test_acceptance_outside_unit_interval_is_rejected(acceptance):
    with pytest.raises(ValueError, match="acceptance"):
        run_recommender(example_graph(), acceptance, np.random.default_rng(0))


@pytest.mark.parametrize("acceptance", [True, "0.5", None])
def test_acceptance_that_is_not_a_real_number_is_rejected(acceptance):
    # a bool or a string would otherwise run the pass or fail inside numpy
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^acceptance must be a real number"):
        run_recommender(example_graph(), acceptance, rng)
    adj = np.stack([example_graph().adj] * 2)
    with pytest.raises(ValueError, match="^acceptance must be a real number"):
        recommend_stack(adj, (0.5, acceptance), rng)
    assert rng.random() == np.random.default_rng(0).random()


def test_zero_acceptance_accepts_nothing():
    g = example_graph()
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = run_recommender(g, 0.0, rng)
        assert len(out.accepted) == 0


def test_saturated_graph_yields_no_proposals():
    n = 3
    edges = [(u, v) for u in range(2 * n) for v in range(2 * n) if (u < n) != (v < n)]
    g = DirectedGraph(n, edges)
    out = run_recommender(g, 1.0, np.random.default_rng(1))
    assert len(out.recommended) == 0


def test_example_graph_support_set_and_frequencies():
    # Only (0,5), (0,7), (4,1) have support; each fires with prob 1/3.
    g = example_graph()
    eligible = {(0, 5), (0, 7), (4, 1)}
    rng = np.random.default_rng(42)
    reps = 10_000
    counts = {pair: 0 for pair in eligible}
    for _ in range(reps):
        out = run_recommender(g, 0.8, rng)
        assert set(pairs(out.recommended)) <= eligible
        assert set(pairs(out.accepted)) <= set(pairs(out.recommended))
        for pair in pairs(out.recommended):
            counts[pair] += 1
    p = 1.0 / 3.0
    sigma = np.sqrt(p * (1 - p) / reps)
    for pair in eligible:
        assert abs(counts[pair] / reps - p) < 3 * sigma


def test_outcome_invariants_on_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        g = sample_snapshot(block_matrix(StrategyPair(0.6, 0.7), n), n, rng)
        before = g.adj.copy()
        out = run_recommender(g, 0.5, rng)
        for u, v in pairs(out.recommended):
            assert (u < n) != (v < n)
            assert u != v
            assert not before[u, v]
        assert set(pairs(out.accepted)) <= set(pairs(out.recommended))
        assert np.array_equal(g.adj, before)  # pass never mutates the graph


def test_empirical_acceptance_rate():
    # dense-support construction: complete in-group graphs plus cross links
    # with 15 partners per node, giving proposal probabilities around 1/2
    n = 30
    rng = np.random.default_rng(17)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges += [(u, v) for u in range(n, 2 * n) for v in range(n, 2 * n) if u != v]
    for i in range(n):
        partners = rng.choice(np.arange(n, 2 * n), size=15, replace=False)
        edges.extend((int(b), i) for b in partners)
    g = DirectedGraph(n, edges)
    acceptance = 0.6
    recommended = accepted = 0
    while recommended < 10_000:
        out = run_recommender(g, acceptance, rng)
        recommended += len(out.recommended)
        accepted += len(out.accepted)
    rate = accepted / recommended
    sigma = np.sqrt(acceptance * (1 - acceptance) / recommended)
    assert abs(rate - acceptance) < 3 * sigma


def test_probability_monotone_in_added_support():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        g = sample_snapshot(block_matrix(StrategyPair(0.5, 0.5), n), n, rng)
        i = int(rng.integers(0, n))
        j = int(rng.integers(n, 2 * n))
        if g.has_edge(i, j):
            continue
        before = recommendation_probability(g, i, j)
        count_before = support(g, i, j)
        u = int(rng.integers(0, 2 * n))
        v = int(rng.integers(0, 2 * n))
        if u == v or g.has_edge(u, v) or (u, v) == (i, j):
            continue
        g.add_edges([(u, v)])
        if support(g, i, j) > count_before:
            assert recommendation_probability(g, i, j) >= before


def test_pass_is_deterministic_for_a_seed():
    g = example_graph()
    out1 = run_recommender(g, 0.7, np.random.default_rng(5))
    out2 = run_recommender(g, 0.7, np.random.default_rng(5))
    assert np.array_equal(out1.recommended, out2.recommended)
    assert np.array_equal(out1.accepted, out2.accepted)


def test_outcome_holds_index_arrays():
    # (k, 2) integer arrays: len() counts pairs, rows are (i, j) in pass order
    g = example_graph()
    out = run_recommender(g, 1.0, np.random.default_rng(3))
    for rows in (out.recommended, out.accepted):
        assert rows.ndim == 2 and rows.shape[1] == 2
        assert np.issubdtype(rows.dtype, np.integer)
        assert len(rows) == rows.shape[0]
    assert len(out.accepted) <= len(out.recommended)
    empty = run_recommender(DirectedGraph(3), 1.0, np.random.default_rng(3))
    assert empty.recommended.shape == empty.accepted.shape == (0, 2)


def reference_run_recommender(g, acceptance, rng):
    """The pass as a plain lexicographic loop over cross pairs, reading edges via has_edge.

    Returns the recommended and accepted (i, j) tuples.
    """
    n = g.n_per_community
    inv = 1.0 / (n - 1) if n > 1 else 0.0
    recommended, accepted = [], []
    for i in range(2 * n):
        others = range(n, 2 * n) if i < n else range(n)
        # a contact linked both ways is listed twice and counts twice
        contacts = [jp for jp in others if g.has_edge(i, jp)]
        contacts += [jp for jp in others if g.has_edge(jp, i)]
        for j in others:
            if g.has_edge(i, j):
                continue
            count = sum(1 for jp in contacts if g.has_edge(jp, j))
            if count == 0:
                continue
            if rng.random() < min(count * inv, 1.0):
                recommended.append((i, j))
                if rng.random() < acceptance:
                    accepted.append((i, j))
    return recommended, accepted


def assert_matches_reference(g, acceptance, make_rng, skip=0):
    """The pass and the reference loop, from equal generators ``skip`` draws in, agree draw for draw."""
    fast_rng, slow_rng = make_rng(), make_rng()
    fast_rng.random(skip)
    slow_rng.random(skip)
    fast = run_recommender(g, acceptance, fast_rng)
    recommended, accepted = reference_run_recommender(g, acceptance, slow_rng)
    assert pairs(fast.recommended) == recommended
    assert pairs(fast.accepted) == accepted
    # both generators stand at the same point of their stream
    assert fast_rng.random(8).tolist() == slow_rng.random(8).tolist()


def random_snapshot(n, rng):
    pair = StrategyPair(1.0 - rng.random(), 1.0 - rng.random())  # p in (0, 1]
    return sample_snapshot(block_matrix(pair, n), n, rng)


def test_pass_matches_reference_loop_draw_for_draw():
    meta = np.random.default_rng(404)
    graphs = [DirectedGraph(1), DirectedGraph(5), example_graph()]
    for _ in range(60):
        n = int(meta.integers(1, 13))
        if meta.random() < 0.5:
            graphs.append(random_snapshot(n, meta))
        else:
            # uniform density: dense cross blocks, supports above n - 1
            density = meta.random()
            edges = [(u, v) for u in range(2 * n) for v in range(2 * n)
                     if u != v and meta.random() < density]
            graphs.append(DirectedGraph(n, edges))
    # long eligible lists, whose proposals take the pass through several
    # buffers of draws, and one snapshot at the size of the large benchmark
    graphs += [random_snapshot(int(meta.integers(13, 61)), meta) for _ in range(8)]
    graphs.append(sample_snapshot(block_matrix(StrategyPair(0.75, 0.75), 200), 200, meta))
    for k, g in enumerate(graphs):
        acceptance = float(meta.choice([0.0, 1.0, meta.random()]))
        # generators fresh and part-way through their stream
        skip = int(meta.choice([0, 1, meta.integers(2, 5000)]))
        assert_matches_reference(g, acceptance, lambda: np.random.default_rng(k), skip)


def reference_proposals(probs, rng):
    """``_proposals`` as a loop drawing one uniform at a time: each pair's, then a proposal's acceptance."""
    proposed, draws = [], []
    for k, p in enumerate(probs.tolist()):
        draws.append(rng.random())
        if draws[-1] < p:
            proposed.append(k)
            draws.append(rng.random())
    return proposed, draws


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    probs=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
@example(probs=[0.5], seed=0)  # a single pair
@example(probs=[1.0], seed=0)
@example(probs=[1.0] * 60, seed=0)  # every pair proposed
@example(probs=[1.0] * 59, seed=1)
@example(probs=[0.0, 1.0] * 30, seed=2)
def test_proposals_match_a_loop_drawing_one_uniform_at_a_time(probs, seed):
    probs = np.array(probs)
    rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    proposed, draws = _proposals(probs, rng)
    expected, expected_draws = reference_proposals(probs, slow_rng)
    assert proposed.tolist() == expected
    assert draws.tolist() == expected_draws
    assert rng.random() == slow_rng.random()


@pytest.mark.parametrize("n", [3, 4, 30])
def test_pass_draws_exactly_the_uniforms_it_uses(n):
    # One buffer of one uniform per eligible pair, then buffers of exactly
    # what the proposals still need. In the "followers" graph every blue
    # node is followed by every red one and each community is complete, so
    # each red-to-blue pair has support n - 1, p = 1, and every draw is a
    # proposal or its acceptance: with n * n odd the first buffer ends on a
    # proposal whose acceptance is the next buffer's first draw.
    followers = DirectedGraph(n, [(u, v) for u in range(2 * n) for v in range(2 * n)
                                  if u != v and (u >= n or v < n)])
    graphs = (followers, random_snapshot(n, np.random.default_rng(n)))
    for k, g in enumerate(graphs):
        eligible = int(np.count_nonzero((two_hop_support(g.adj, n) > 0) & ~g.adj))
        rng = RecordingGenerator(np.random.default_rng(7))
        out = run_recommender(g, 0.5, rng)
        assert rng.sizes[0] == eligible
        assert all(size >= 1 for size in rng.sizes)
        assert sum(rng.sizes) == eligible + len(out.recommended)
        if k == 0:  # followers: every pair proposed, one buffer per halving
            assert eligible == len(out.recommended) == n * n
            assert len(rng.sizes) > 2
        assert_matches_reference(g, 0.5, lambda: np.random.default_rng(7))


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox])
def test_pass_matches_reference_with_any_bit_generator(bit_generator):
    # the pass never draws past the last uniform it uses, so it needs no
    # way to rewind a generator and works with every bit generator
    meta = np.random.default_rng(505)
    for k in range(12):
        g = random_snapshot(int(meta.integers(2, 25)), meta)
        assert_matches_reference(
            g, float(meta.random()), lambda: np.random.Generator(bit_generator(k)), skip=int(meta.integers(0, 100))
        )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 7),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    acceptance=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    skip=st.integers(0, 50),
)
def test_pass_matches_reference_on_any_small_graph(n, density, seed, acceptance, skip):
    rng = np.random.default_rng(seed)
    adj = rng.random((2 * n, 2 * n)) < density
    np.fill_diagonal(adj, False)
    g = DirectedGraph.from_adjacency(adj, n)
    assert_matches_reference(g, acceptance, lambda: np.random.default_rng(seed), skip)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 5),
    density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    acceptance=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_pass_equals_one_pass_per_snapshot(n, k, density, acceptance, seed):
    # one pass over a (k, 2n, 2n) stack is k passes in turn on one generator
    adj = np.random.default_rng(seed).random((k, 2 * n, 2 * n)) < density
    adj[:, np.arange(2 * n), np.arange(2 * n)] = False
    rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = recommend_stack(adj, acceptance[:k], rng)
    for s in range(k):
        one = run_recommender(DirectedGraph.from_adjacency(adj[s], n), acceptance[s], one_rng)
        # node i of snapshot s is s * 2n + i
        for rows, expected in ((stack.recommended, one.recommended), (stack.accepted, one.accepted)):
            mine = rows[rows[:, 0] // (2 * n) == s]
            assert pairs(mine - [s * 2 * n, 0]) == pairs(expected)
    assert rng.random() == one_rng.random()


def test_stack_pass_needs_one_acceptance_per_snapshot():
    adj = np.stack([example_graph().adj] * 2)
    for acceptance in ((0.5,), (0.5, 0.5, 0.5), (0.5, 1.5), (float("nan"), 0.5)):
        with pytest.raises(ValueError, match="acceptance"):
            recommend_stack(adj, acceptance, np.random.default_rng(0))


@pytest.mark.parametrize("k", [1, 3])
def test_stack_pass_rejects_an_adjacency_that_is_not_a_bool_stack(k):
    # indexing by an int 0/1 array picks rows by value, not cells by mask; and
    # a 2-D adjacency with 2n acceptances would read only the first of them
    tables = np.stack([block_matrix(StrategyPair(0.75, 0.5), 10)] * k)
    adj = sample_adjacency(tables, 10, np.random.default_rng(3))
    rng = np.random.default_rng(0)
    for bad, acceptance, message in (
        (adj.astype(np.int64), (0.8,) * k, "adj must be a bool array"),
        (adj.astype(np.uint8), (0.8,) * k, "adj must be a bool array"),
        (adj[0], (0.0,) + (1.0,) * 19, r"adj must be a \(k, 2n, 2n\) stack"),
    ):
        with pytest.raises(ValueError, match=message):
            recommend_stack(bad, acceptance, rng)
    assert rng.random() == np.random.default_rng(0).random()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 5),
    density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    acceptance=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_pass_with_the_contacts_given_equals_the_pass_without(n, k, density, acceptance, seed):
    adj = np.random.default_rng(seed).random((k, 2 * n, 2 * n)) < density
    adj[:, np.arange(2 * n), np.arange(2 * n)] = False
    rng, given_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = recommend_stack(adj, acceptance[:k], rng)
    got = recommend_stack(adj, acceptance[:k], given_rng, contacts=cross_contacts(adj, n))
    assert pairs(got.recommended) == pairs(expected.recommended)
    assert pairs(got.accepted) == pairs(expected.accepted)
    assert given_rng.bit_generator.state == rng.bit_generator.state

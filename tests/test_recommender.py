"""Recommender pass: proposal probabilities, acceptance, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegame.blockmodel import StrategyPair, block_matrix, sample_snapshot
from edgegame.graph import DirectedGraph, two_hop_support
from edgegame.recommender import (
    RecommendationOutcome,
    recommendation_probability,
    run_recommender,
)

EXAMPLE_EDGES = [(4, 5), (4, 7), (0, 1), (4, 0)]  # n=4 picture graph


def support(g, i, j):
    return int(two_hop_support(g.adj, g.n_per_community)[i, j])


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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 7),
    density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_probability_matches_the_support_matrix(n, density, seed):
    # the one-pair count agrees with two_hop_support on every eligible cross pair
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
        before = set(g.sorted_edges())
        out = run_recommender(g, 0.5, rng)
        for u, v in pairs(out.recommended):
            assert (u < n) != (v < n)
            assert u != v
            assert (u, v) not in before
        assert set(pairs(out.accepted)) <= set(pairs(out.recommended))
        assert set(g.sorted_edges()) == before  # pass never mutates the graph


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


class RecordingGenerator:
    """Passes ``random(size)`` calls on to a generator and records each size."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


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

"""Recommender pass: proposal probabilities, acceptance, invariants."""

import numpy as np
import pytest

from edgegame.blockmodel import StrategyPair, block_matrix, sample_snapshot
from edgegame.graph import DirectedGraph, two_hop_support
from edgegame.recommender import (
    RecommendationOutcome,
    RecommenderConfig,
    recommendation_probability,
    run_recommender,
)

EXAMPLE_EDGES = [(4, 5), (4, 7), (0, 1), (4, 0)]  # n=4 picture graph


def support(g, i, j):
    return int(two_hop_support(g.adj, g.n_per_community)[i, j])


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


def test_zero_acceptance_accepts_nothing():
    g = example_graph()
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = run_recommender(g, RecommenderConfig(0.0), rng)
        assert out.accepted == ()


def test_saturated_graph_yields_no_proposals():
    n = 3
    edges = [(u, v) for u in range(2 * n) for v in range(2 * n) if (u < n) != (v < n)]
    g = DirectedGraph(n, edges)
    out = run_recommender(g, RecommenderConfig(1.0), np.random.default_rng(1))
    assert out.recommended == ()


def test_example_graph_support_set_and_frequencies():
    # Only (0,5), (0,7), (4,1) have support; each fires with prob 1/3.
    g = example_graph()
    eligible = {(0, 5), (0, 7), (4, 1)}
    rng = np.random.default_rng(42)
    reps = 10_000
    counts = {pair: 0 for pair in eligible}
    for _ in range(reps):
        out = run_recommender(g, RecommenderConfig(0.8), rng)
        assert set(out.recommended) <= eligible
        assert set(out.accepted) <= set(out.recommended)
        for pair in out.recommended:
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
        out = run_recommender(g, RecommenderConfig(0.5), rng)
        for u, v in out.recommended:
            assert (u < n) != (v < n)
            assert u != v
            assert (u, v) not in before
        assert set(out.accepted) <= set(out.recommended)
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
        out = run_recommender(g, RecommenderConfig(acceptance), rng)
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
        g.add_edge(u, v)
        if support(g, i, j) > count_before:
            assert recommendation_probability(g, i, j) >= before


def test_pass_is_deterministic_for_a_seed():
    g = example_graph()
    out1 = run_recommender(g, RecommenderConfig(0.7), np.random.default_rng(5))
    out2 = run_recommender(g, RecommenderConfig(0.7), np.random.default_rng(5))
    assert out1 == out2


def test_outcome_serialization():
    g = example_graph()
    out = run_recommender(g, RecommenderConfig(1.0), np.random.default_rng(12))
    text = out.dumps()
    lines = text.splitlines()
    assert lines[0] == "RECOMMENDED"
    split = lines.index("ACCEPTED")
    rec_lines = lines[1:split]
    acc_lines = lines[split + 1 :]
    assert rec_lines == [f"{u} {v}" for u, v in out.recommended]
    assert acc_lines == [f"{u} {v}" for u, v in out.accepted]


def reference_run_recommender(g, cfg, rng):
    """The pass as a plain lexicographic loop over cross pairs, reading edges via has_edge."""
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
                if rng.random() < cfg.acceptance_probability:
                    accepted.append((i, j))
    return RecommendationOutcome(tuple(recommended), tuple(accepted))


def test_pass_matches_reference_loop_draw_for_draw():
    meta = np.random.default_rng(404)
    graphs = [DirectedGraph(1), DirectedGraph(5), example_graph()]
    for _ in range(60):
        n = int(meta.integers(1, 13))
        if meta.random() < 0.5:
            pair = StrategyPair(1.0 - meta.random(), 1.0 - meta.random())  # p in (0, 1]
            graphs.append(sample_snapshot(block_matrix(pair, n), n, meta))
        else:
            # uniform density: dense cross blocks, supports above n - 1
            density = meta.random()
            edges = [(u, v) for u in range(2 * n) for v in range(2 * n)
                     if u != v and meta.random() < density]
            graphs.append(DirectedGraph(n, edges))
    for k, g in enumerate(graphs):
        cfg = RecommenderConfig(float(meta.choice([0.0, 1.0, meta.random()])))
        fast_rng, slow_rng = np.random.default_rng(k), np.random.default_rng(k)
        fast = run_recommender(g, cfg, fast_rng)
        slow = reference_run_recommender(g, cfg, slow_rng)
        assert fast.recommended == slow.recommended, k
        assert fast.accepted == slow.accepted, k
        assert fast_rng.random() == slow_rng.random(), k

"""Utilities, best responses, equilibria, and Monte-Carlo consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegame.blockmodel import StrategyPair, block_matrix, sample_adjacency
from edgegame.game import (
    PlayerRole,
    Regime,
    best_response,
    cross_partial,
    expected_utility_base,
    expected_utility_rec,
    iterated_dominance,
    nash_equilibrium,
    realized_utility_rec_all,
)
from edgegame.graph import DirectedGraph, two_hop_support

# --- brute-force oracles working from raw indicator definitions -----------


def _d(edges, n, i, j):
    return 1 if (i, j) in edges and (i < n) != (j < n) else 0


def _s(edges, n, i, j):
    return 1 if (i, j) in edges and (i < n) == (j < n) else 0


def oracle_base(edges, n, i):
    return sum(_d(edges, n, i, j) - _d(edges, n, j, i) for j in range(2 * n) if j != i)


def oracle_rec(edges, n, i, c):
    total = float(oracle_base(edges, n, i))
    if n == 1:
        return total
    size = 2 * n
    for j in range(size):
        if j == i:
            continue
        inner = sum(
            (_d(edges, n, i, jp) + _d(edges, n, jp, i)) * _s(edges, n, jp, j)
            for jp in range(size)
            if jp not in (i, j)
        )
        total += c * (1 - _d(edges, n, i, j)) * inner / (n - 1)
    for j in range(size):
        for ip in range(size):
            if ip in (i, j) or j == i:
                continue
            total += (
                c
                * (1 - _d(edges, n, j, ip))
                * _s(edges, n, i, ip)
                * _d(edges, n, j, i)
                / (n - 1)
            )
    return total


def reference_realized_utility_rec_all(adj, n, acceptance):
    """The kernel as dense 2n x 2n float products over masked copies of the adjacency."""
    a = adj.astype(np.float64)
    blue = np.arange(2 * n) >= n
    cross = blue[:, None] != blue[None, :]
    d = a * cross
    s = a * ~cross
    base = d.sum(axis=1) - d.sum(axis=0)
    if n == 1:
        return base
    w = (d + d.T) @ s
    expected_links = w.sum(axis=1) - (d * w).sum(axis=1)
    col = d.sum(axis=0)
    bridging = (s * (col[:, None] - d.T @ d)).sum(axis=1)
    return base + acceptance / (n - 1) * (expected_links + bridging)


def random_edges(n, density, rng):
    return {
        (u, v)
        for u in range(2 * n)
        for v in range(2 * n)
        if u != v and rng.random() < density
    }


# --- realized utilities -----------------------------------------------------


def utilities(edges, n, c):
    return realized_utility_rec_all(DirectedGraph(n, edges).adj, n, c)


def test_realized_base_examples():
    # with acceptance 0 only the base utility remains
    n = 4
    # i=0 has 3 cross followers (4,5,6 follow it) and 1 cross friend (7)
    assert utilities([(0, 4), (0, 5), (0, 6), (7, 0)], n, 0.0)[0] == 2
    # fully in-group graph: utility 0 for everyone
    assert np.all(utilities([(0, 1), (1, 0), (2, 3), (3, 2)], 2, 0.0) == 0)


def test_realized_base_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 6))  # 2n <= 10
        edges = random_edges(n, float(rng.random()) * 0.6, rng)
        vec = utilities(edges, n, 0.0)
        for i in range(2 * n):
            assert vec[i] == oracle_base(edges, n, i)


def test_realized_rec_degenerate_cases():
    assert np.all(utilities([], 3, 0.8) == 0.0)
    rng = np.random.default_rng(1)
    edges = random_edges(3, 0.4, rng)
    vec = utilities(edges, 3, 0.0)
    for i in range(6):
        assert vec[i] == float(oracle_base(edges, 3, i))


def test_realized_rec_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 5))  # 2n <= 8
        edges = random_edges(n, float(rng.random()) * 0.6, rng)
        c = float(rng.random())
        vec = utilities(edges, n, c)
        for i in range(2 * n):
            assert vec[i] == pytest.approx(oracle_rec(edges, n, i, c), abs=1e-12)


def test_vectorized_matches_per_node():
    # The per-block assembly of the kernel against per-node sums over the
    # same two_hop_support: expected links over missing pairs, bridging
    # over (cross friend, in-group follower) pairs.
    rng = np.random.default_rng(33)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        edges = random_edges(n, 0.3, rng)
        g = DirectedGraph(n, edges)
        c = float(rng.random())
        vec = realized_utility_rec_all(g.adj, n, c)
        support = two_hop_support(g.adj, n)
        for i in range(2 * n):
            expected_links = sum(support[i, j] for j in range(2 * n) if not g.has_edge(i, j))
            bridging = sum(
                1
                for j in range(2 * n)
                if (j < n) != (i < n) and g.has_edge(j, i)
                for ip in range(2 * n)
                if (ip < n) == (i < n) and g.has_edge(i, ip) and not g.has_edge(j, ip)
            )
            expected = oracle_base(edges, n, i) + c / (n - 1) * (expected_links + bridging)
            assert vec[i] == pytest.approx(expected, abs=1e-9)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    acceptance=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
)
def test_kernel_is_bit_identical_to_dense_reference(n, density, seed, acceptance):
    adj = np.random.default_rng(seed).random((2 * n, 2 * n)) < density
    np.fill_diagonal(adj, False)
    got = realized_utility_rec_all(adj, n, acceptance)
    want = reference_realized_utility_rec_all(adj, n, acceptance)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_kernel_rejects_wrong_shape():
    for shape in ((6, 6), (8, 6), (8,), (8, 8, 1)):
        with pytest.raises(ValueError, match="adj must be 8x8"):
            realized_utility_rec_all(np.zeros(shape, dtype=bool), 4, 0.5)


# --- expected utilities ------------------------------------------------------


def test_expected_base_examples():
    assert expected_utility_base(StrategyPair(1, 1), PlayerRole.RED) == 0.0
    s = StrategyPair(0.9, 0.4)
    assert expected_utility_base(s, PlayerRole.RED) == pytest.approx(0.5)
    assert expected_utility_base(s, PlayerRole.BLUE) == pytest.approx(-0.5)


def test_expected_base_zero_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = StrategyPair(1 - float(rng.random()), 1 - float(rng.random()))
        total = expected_utility_base(s, PlayerRole.RED) + expected_utility_base(
            s, PlayerRole.BLUE
        )
        assert total == pytest.approx(0.0, abs=1e-15)


def test_expected_base_strictly_increasing_in_own_p():
    for other in (0.1, 0.5, 1.0):
        values = [
            expected_utility_base(StrategyPair(p, other), PlayerRole.RED)
            for p in np.linspace(0.05, 1.0, 20)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_expected_rec_examples():
    assert expected_utility_rec(StrategyPair(1, 1), 0.7, PlayerRole.RED) == 0.0
    assert expected_utility_rec(StrategyPair(0.75, 0.75), 0.8, PlayerRole.RED) == pytest.approx(
        0.45
    )
    assert expected_utility_rec(StrategyPair(0.5, 1.0), 0.8, PlayerRole.RED) == pytest.approx(
        0.1
    )


def test_expected_rec_role_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = StrategyPair(1 - float(rng.random()), 1 - float(rng.random()))
        c = float(rng.random())
        assert expected_utility_rec(s, c, PlayerRole.RED) == pytest.approx(
            expected_utility_rec(s.swapped(), c, PlayerRole.BLUE)
        )


# --- best response and equilibrium -------------------------------------------


def test_best_response_examples():
    assert best_response(0.8, 0.75) == 0.75
    assert best_response(0.4, 0.123) == 1.0
    assert best_response(0.4, 1.0) == 1.0
    assert best_response(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert best_response(0.0, 0.3) == 1.0


def test_best_response_validation():
    with pytest.raises(ValueError):
        best_response(0.8, 0.0)
    with pytest.raises(ValueError):
        best_response(1.5, 0.5)


def test_best_response_maximizes_expected_utility():
    rng = np.random.default_rng(4)
    grid = np.linspace(1e-6, 1.0, 2001)
    for _ in range(25):
        c = float(rng.random())
        other = 1 - float(rng.random())
        star = best_response(c, other)
        best_grid = max(
            expected_utility_rec(StrategyPair(float(p), other), c, PlayerRole.RED)
            for p in grid
        )
        value = expected_utility_rec(StrategyPair(star, other), c, PlayerRole.RED)
        assert value >= best_grid - 1e-9


def test_nash_equilibrium_examples():
    r = nash_equilibrium(0.8)
    assert (r.strategy.p_r, r.strategy.p_b) == (0.75, 0.75)
    assert r.regime is Regime.INTEGRATION
    assert r.acceptance_probability == 0.8

    r = nash_equilibrium(0.3)
    assert (r.strategy.p_r, r.strategy.p_b) == (1.0, 1.0)
    assert r.regime is Regime.SEGREGATION

    r = nash_equilibrium(1.0)
    assert r.strategy.p_r == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_nash_fixed_point_is_exact():
    for c in (2.0 / 3.0, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0):
        p = nash_equilibrium(c).strategy.p_r
        assert best_response(c, p) == p


def test_alternating_best_response_converges():
    rng = np.random.default_rng(6)
    for c in (0.55, 0.7, 0.8, 1.0):
        target = nash_equilibrium(c).strategy.p_r
        for _ in range(5):
            p_r = 1 - float(rng.random())
            p_b = 1 - float(rng.random())
            for step in range(40):
                if step % 2 == 0:
                    p_r = best_response(c, p_b)
                else:
                    p_b = best_response(c, p_r)
            assert abs(p_r - target) < 1e-6
            assert abs(p_b - target) < 1e-6


def test_iterated_dominance_examples():
    intervals = iterated_dominance(0.8, 2)
    assert intervals[0] == (0.625, 1.0)
    assert intervals[1] == (0.625, 0.8125)


def test_iterated_dominance_converges_and_nests():
    intervals = iterated_dominance(0.8, 60)
    widths = [hi - lo for lo, hi in intervals]
    assert all(b <= a for a, b in zip(widths, widths[1:]))
    lo, hi = intervals[-1]
    assert abs(lo - 0.75) < 1e-9
    assert abs(hi - 0.75) < 1e-9


def test_iterated_dominance_domain_error():
    with pytest.raises(ValueError):
        iterated_dominance(0.5, 10)
    with pytest.raises(ValueError):
        iterated_dominance(0.8, 0)


def test_cross_partial_examples():
    value = cross_partial(0.8, StrategyPair(0.5, 0.5), 1e-4)
    assert value == pytest.approx(-0.8, abs=1e-6)
    assert cross_partial(0.0, StrategyPair(0.5, 0.5), 1e-4) == pytest.approx(0.0, abs=1e-9)
    a = cross_partial(0.6, StrategyPair(0.3, 0.7), 1e-5)
    b = cross_partial(0.6, StrategyPair(0.6, 0.4), 1e-5)
    assert a == pytest.approx(b, abs=1e-6)


def test_cross_partial_stencil_validation():
    with pytest.raises(ValueError):
        cross_partial(0.8, StrategyPair(1.0, 0.5), 1e-4)  # p_r + h leaves (0, 1]
    with pytest.raises(ValueError):
        cross_partial(0.8, StrategyPair(0.5, 0.5), 0.0)


# --- Monte-Carlo consistency --------------------------------------------------


def mc_red_mean(s: StrategyPair, c: float, n: int, snapshots: int, rng) -> tuple[float, float]:
    m = block_matrix(s, n)
    means = np.empty(snapshots)
    for k in range(snapshots):
        adj = sample_adjacency(m, n, rng)
        means[k] = realized_utility_rec_all(adj, n, c)[:n].mean()
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(snapshots))


@pytest.mark.parametrize("c", [0.0, 0.4, 0.8])
def test_mc_mean_matches_expected_utility(c):
    # full strategy grid at a reduced snapshot budget; the acceptance suite
    # runs the headline 10^4-snapshot version on 12 points
    rng = np.random.default_rng(777)
    n = 50
    snapshots = 1500
    for p_r in (0.25, 0.5, 0.75, 1.0):
        for p_b in (0.25, 0.5, 0.75, 1.0):
            s = StrategyPair(p_r, p_b)
            mean, se = mc_red_mean(s, c, n, snapshots, rng)
            expected = expected_utility_rec(s, c, PlayerRole.RED)
            assert abs(mean - expected) <= 3 * se + 2.0 / n, (
                f"(p_r={p_r}, p_b={p_b}, c={c}): mc={mean}, expected={expected}, se={se}"
            )

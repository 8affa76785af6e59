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
    expected_utility_rec,
    iterated_dominance,
    nash_equilibrium,
    realized_utility_rec_all,
)
from edgegame.graph import DirectedGraph, two_hop_support
from oracles import cross_partial, oracle_d, oracle_s, red_snapshot_means

# --- brute-force oracles working from raw indicator definitions -----------


def oracle_base(edges, n, i):
    return sum(oracle_d(edges, n, i, j) - oracle_d(edges, n, j, i) for j in range(2 * n) if j != i)


def oracle_rec(edges, n, i, c):
    total = float(oracle_base(edges, n, i))
    if n == 1:
        return total
    size = 2 * n
    for j in range(size):
        if j == i:
            continue
        inner = sum(
            (oracle_d(edges, n, i, jp) + oracle_d(edges, n, jp, i)) * oracle_s(edges, n, jp, j)
            for jp in range(size)
            if jp not in (i, j)
        )
        total += c * (1 - oracle_d(edges, n, i, j)) * inner / (n - 1)
    for j in range(size):
        for ip in range(size):
            if ip in (i, j) or j == i:
                continue
            total += (
                c
                * (1 - oracle_d(edges, n, j, ip))
                * oracle_s(edges, n, i, ip)
                * oracle_d(edges, n, j, i)
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
    # The kernel's contact sums against per-node sums over
    # graph.two_hop_support, the one definition of the support: expected
    # links over missing pairs, bridging over (cross friend, in-group
    # follower) pairs. This is what ties the reaches to the support.
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


def uniform_snapshot(n, density, seed):
    adj = np.random.default_rng(seed).random((2 * n, 2 * n)) < density
    np.fill_diagonal(adj, False)
    return adj, n


def block_model_snapshot(n, p_r, p_b, seed):
    # dense in-group blocks and O(n) cross edges, as the Monte-Carlo checks sample
    return sample_adjacency(block_matrix(StrategyPair(p_r, p_b), n), n, np.random.default_rng(seed)), n


seeds = st.integers(0, 2**32 - 1)
actions = st.sampled_from([1.0]) | st.floats(0.0, 1.0, exclude_min=True)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    snapshot=st.builds(
        uniform_snapshot, st.integers(1, 12), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), seeds
    )
    | st.builds(block_model_snapshot, st.integers(1, 60), actions, actions, seeds),
    acceptance=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
)
def test_kernel_is_bit_identical_to_dense_reference(snapshot, acceptance):
    adj, n = snapshot
    got = realized_utility_rec_all(adj, n, acceptance)
    want = reference_realized_utility_rec_all(adj, n, acceptance)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def stack_of_snapshots(n, k, density, seed):
    return np.random.default_rng(seed).random((k, 2 * n, 2 * n)) < density, n


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    stack=st.builds(
        stack_of_snapshots,
        st.integers(1, 12),
        st.integers(1, 5),
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        seeds,
    ),
    acceptance=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
)
def test_stacked_kernel_is_bit_identical_to_one_call_per_snapshot(stack, acceptance):
    adj, n = stack
    got = realized_utility_rec_all(adj, n, acceptance)
    want = np.stack([realized_utility_rec_all(a, n, acceptance) for a in adj])
    assert got.dtype == want.dtype
    assert got.shape == want.shape == (len(adj), 2 * n)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2.0, True, 0])
def test_kernel_rejects_a_bad_n(n):
    with pytest.raises(ValueError, match="^n must be"):
        realized_utility_rec_all(np.zeros((4, 4), dtype=bool), n, 0.5)


def test_kernel_rejects_wrong_shape():
    for shape in ((6, 6), (8, 6), (8,), (8, 8, 1), (2, 1, 8, 8)):
        with pytest.raises(ValueError, match="adj must be 8x8"):
            realized_utility_rec_all(np.zeros(shape, dtype=bool), 4, 0.5)


@pytest.mark.parametrize("acceptance", [math.nan, 1.5, True, "0.5"])
def test_kernel_rejects_a_bad_acceptance(acceptance):
    adj, n = block_model_snapshot(4, 0.5, 0.25, 4)
    with pytest.raises(ValueError, match="^acceptance"):
        realized_utility_rec_all(adj, n, acceptance)


def test_kernel_rejects_a_non_bool_adjacency():
    # the kernel reads adj as masks, so another dtype is refused, not reinterpreted
    adj, n = block_model_snapshot(6, 0.5, 0.25, 4)
    for dtype in (np.int64, np.uint8, np.float64):
        with pytest.raises(ValueError, match="adj must be a bool array"):
            realized_utility_rec_all(adj.astype(dtype), n, 0.8)


# --- expected utilities ------------------------------------------------------


def test_expected_base_examples():
    # without the recommender (c = 0) the utility is own p minus other p, bit for bit
    assert expected_utility_rec(StrategyPair(1, 1), 0.0, PlayerRole.RED) == 0.0
    s = StrategyPair(0.9, 0.4)
    assert expected_utility_rec(s, 0.0, PlayerRole.RED) == s.p_r - s.p_b == pytest.approx(0.5)
    assert expected_utility_rec(s, 0.0, PlayerRole.BLUE) == s.p_b - s.p_r == pytest.approx(-0.5)


def test_expected_base_zero_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = StrategyPair(1 - float(rng.random()), 1 - float(rng.random()))
        total = expected_utility_rec(s, 0.0, PlayerRole.RED) + expected_utility_rec(
            s, 0.0, PlayerRole.BLUE
        )
        assert total == pytest.approx(0.0, abs=1e-15)


def test_expected_base_strictly_increasing_in_own_p():
    for other in (0.1, 0.5, 1.0):
        values = [
            expected_utility_rec(StrategyPair(p, other), 0.0, PlayerRole.RED)
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
            expected_utility_rec(StrategyPair(s.p_b, s.p_r), c, PlayerRole.BLUE)
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
    with pytest.raises(ValueError, match="^acceptance"):
        iterated_dominance(True, 3)


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
    # NaN failed on p_r, True ran as 1.0 and a string raised a TypeError
    for h in (float("nan"), True, "x"):
        with pytest.raises(ValueError, match="^h must be"):
            cross_partial(0.8, StrategyPair(0.5, 0.5), h)


# --- Monte-Carlo consistency --------------------------------------------------


def mc_red_mean(s: StrategyPair, c: float, n: int, snapshots: int, rng) -> tuple[float, float]:
    means = red_snapshot_means(s, c, n, snapshots, rng)
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

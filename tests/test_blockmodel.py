"""Strategy-driven block sampling: probabilities, moments, determinism."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegame import blockmodel
from edgegame.blockmodel import StrategyPair, block_matrix, sample_adjacency, sample_snapshot
from edgegame.graph import inter_edge_count, segregation_measure
from oracles import RecordingGenerator, one_buffer_adjacency


def test_strategy_pair_validation():
    StrategyPair(1.0, 0.5)
    with pytest.raises(ValueError):
        StrategyPair(0.0, 0.5)
    with pytest.raises(ValueError):
        StrategyPair(0.5, 1.2)


def test_block_matrix_values():
    # indexed [friend community, follower community]; the follower's own p
    # sets the probability of a cross edge
    table = block_matrix(StrategyPair(1.0, 1.0), 20)
    assert table.shape == (2, 2) and table.dtype == np.float64
    assert table.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    table = block_matrix(StrategyPair(0.75, 0.75), 20)
    assert table[0, 1] == pytest.approx(0.0125)
    assert table[1, 0] == pytest.approx(0.0125)

    table = block_matrix(StrategyPair(0.5, 1.0), 10)
    assert table.tolist() == [[0.5, 0.0], [(1.0 - 0.5) / 10, 1.0]]


def test_matrix_validation():
    with pytest.raises(ValueError):
        block_matrix(StrategyPair(0.5, 0.5), 0)


@pytest.mark.parametrize(
    "n, message", [(0, "n must be >= 1"), (2.5, "n must be an int"), (True, "n must be an int")]
)
def test_sample_adjacency_checks_n(n, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{message}"):
        sample_adjacency(np.eye(2), n, rng)
    assert rng.random() == np.random.default_rng(0).random()


def test_sample_degenerate_matrices():
    rng = np.random.default_rng(0)
    g = sample_snapshot(np.eye(2), 3, rng)
    # both communities complete, no cross edges
    assert np.count_nonzero(g.adj) == 2 * 3 * 2
    assert inter_edge_count(g.adj, 3) == 0
    assert segregation_measure(g.adj, 3) == 1.0

    g_empty = sample_snapshot(np.zeros((2, 2)), 4, rng)
    assert np.count_nonzero(g_empty.adj) == 0


def test_sample_never_contains_self_loops():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = sample_snapshot(np.full((2, 2), 0.9), 5, rng)
        assert not np.any(np.diagonal(g.adj))


def test_determinism_same_seed_same_graph():
    m = block_matrix(StrategyPair(0.7, 0.4), 15)
    g1 = sample_snapshot(m, 15, np.random.default_rng(99))
    g2 = sample_snapshot(m, 15, np.random.default_rng(99))
    assert np.array_equal(g1.adj, g2.adj)


def test_intra_edge_count_moments():
    # mean in-group edge count per community across samples vs binomial mean
    n = 10
    p = 0.8
    m = block_matrix(StrategyPair(p, p), n)
    rng = np.random.default_rng(1234)
    reps = 10_000
    red = np.empty(reps)
    blue = np.empty(reps)
    for k in range(reps):
        adj = sample_adjacency(m, n, rng)
        red[k] = adj[:n, :n].sum()
        blue[k] = adj[n:, n:].sum()
    mean_expected = p * n * (n - 1)
    var_one = n * (n - 1) * p * (1 - p)
    sigma = np.sqrt(var_one / reps)
    assert abs(red.mean() - mean_expected) < 3 * sigma
    assert abs(blue.mean() - mean_expected) < 3 * sigma


def test_cross_edge_count_moments():
    n = 10
    m = block_matrix(StrategyPair(0.8, 0.8), n)
    rng = np.random.default_rng(4321)
    reps = 10_000
    inter = np.empty(reps)
    for k in range(reps):
        adj = sample_adjacency(m, n, rng)
        inter[k] = adj[:n, n:].sum() + adj[n:, :n].sum()
    p_cross = (1 - 0.8) / n
    mean_expected = 2 * n * n * p_cross
    sigma = np.sqrt(2 * n * n * p_cross * (1 - p_cross) / reps)
    assert abs(inter.mean() - mean_expected) < 3 * sigma


def test_edge_direction_follows_the_follower():
    # p_r = 1: red users never follow blue, so no blue->red edges appear;
    # blue users still follow red with probability (1 - p_b)/n.
    n = 25
    m = block_matrix(StrategyPair(1.0, 0.5), n)
    rng = np.random.default_rng(8)
    saw_red_to_blue = False
    for _ in range(20):
        adj = sample_adjacency(m, n, rng)
        assert adj[n:, :n].sum() == 0  # no edges from blue to red
        if adj[:n, n:].sum() > 0:
            saw_red_to_blue = True
    assert saw_red_to_blue


def reference_sample_adjacency(source, n, rng):
    """One scalar uniform per cell in row-major order, diagonal included.

    An edge (u, v) runs friend u -> follower v, so it exists iff u != v and
    its uniform is below the probability that v's community follows u's.
    ``source`` is either a StrategyPair, whose probabilities are worked out
    here from the pair (the follower community's in-group p, or
    (1 - p_follower)/n across), or a table read at [friend community,
    follower community].
    """

    def probability(friend, follower):
        if isinstance(source, StrategyPair):
            p = (source.p_r, source.p_b)[follower]
            return p if friend == follower else (1.0 - p) / n
        return source[friend, follower]

    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    for u in range(2 * n):
        for v in range(2 * n):
            x = rng.random()
            adj[u, v] = u != v and x < probability(u // n, v // n)
    return adj


PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
IN_GROUP = st.floats(0.0, 1.0, exclude_min=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    pair=st.builds(StrategyPair, IN_GROUP, IN_GROUP),
    table=st.none() | st.lists(PROBABILITY, min_size=4, max_size=4).map(lambda ps: np.reshape(ps, (2, 2))),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_adjacency_matches_per_cell_reference(n, pair, table, seed):
    # no table: the strategy pair's own block table at this n, which the
    # reference works out from the pair, not from block_matrix
    m, source = (block_matrix(pair, n), pair) if table is None else (table, table)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    adj = sample_adjacency(m, n, rng)
    assert adj.dtype == bool
    assert np.array_equal(adj, reference_sample_adjacency(source, n, ref_rng))
    assert rng.random() == ref_rng.random()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    tables=st.lists(
        st.lists(PROBABILITY, min_size=4, max_size=4).map(lambda ps: np.reshape(ps, (2, 2))),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_adjacency_stack_equals_one_call_per_table(n, tables, seed):
    # a (k, 2, 2) stack of tables draws the k snapshots of k calls, in turn
    rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = sample_adjacency(np.stack(tables), n, rng)
    assert stack.shape == (len(tables), 2 * n, 2 * n) and stack.dtype == bool
    for k, table in enumerate(tables):
        assert np.array_equal(stack[k], sample_adjacency(table, n, one_rng))
    assert rng.random() == one_rng.random()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    tables=st.lists(
        st.lists(PROBABILITY, min_size=4, max_size=4).map(lambda ps: np.reshape(ps, (2, 2))),
        min_size=1,
        max_size=3,
    ),
    piece_cells=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_adjacency_in_pieces_equals_one_buffer(n, tables, piece_cells, seed):
    # every draw in pieces of whole friend rows, some of them one row longer than the
    # bound, and some running from one snapshot into the next
    rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(blockmodel, "PIECE_CELLS", piece_cells):
        pieced = sample_adjacency(np.stack(tables), n, rng)
    assert pieced.shape == (len(tables), 2 * n, 2 * n) and pieced.dtype == bool
    assert np.array_equal(pieced, one_buffer_adjacency(np.stack(tables), n, one_rng))
    assert rng.random() == one_rng.random()


def test_a_draw_above_the_bound_takes_pieces_of_at_most_the_piece_size():
    # the same snapshots and the same next draw as one buffer
    cases = [
        # 160,000 cells in pieces of 40 friend rows (16,000 cells)
        (200, block_matrix(StrategyPair(0.75, 0.5), 200), [(40, 2, 200)] * 10),
        # protocol-n20's stack, k = 21: 840 friend rows in pieces of 409, crossing snapshots
        (
            20,
            np.stack([block_matrix(StrategyPair(0.5 + s / 50, 0.9 - s / 50), 20) for s in range(21)]),
            [(409, 2, 20), (409, 2, 20), (22, 2, 20)],
        ),
    ]
    for n, m, sizes in cases:
        rng, one_rng = RecordingGenerator(np.random.default_rng(0)), np.random.default_rng(0)
        adj = sample_adjacency(m, n, rng)
        assert rng.sizes == sizes
        assert np.array_equal(adj, one_buffer_adjacency(m, n, one_rng))
        assert rng.rng.random() == one_rng.random()

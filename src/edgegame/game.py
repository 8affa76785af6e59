"""Utilities, best responses, and equilibria of the edge-formation game.

Each community acts as one player choosing its in-group follow
probability in (0, 1]. A node's realized utility on a graph snapshot is
cross-community followers minus cross-community friends; the recommender
adds two reward terms (expected links gained through the recommender and
a bridging bonus for routing proposals). The two-player expected
utilities are quadratic in the strategies, which gives a closed-form
unique equilibrium: all-in-group play when the acceptance probability c
is at most 1/2, and (1/(3c) + 1/3, 1/(3c) + 1/3) above it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .blockmodel import StrategyPair
from .checks import integer, probability, real

# Lower end of the action set (0, 1]. Best responses never reach it in
# either regime; it only keeps the clamp inside the open interval.
ACTION_FLOOR = 1e-9


class PlayerRole(enum.Enum):
    RED = "red"
    BLUE = "blue"


class Regime(enum.Enum):
    SEGREGATION = "segregation"
    INTEGRATION = "integration"


@dataclass(frozen=True)
class EquilibriumResult:
    strategy: StrategyPair
    regime: Regime


# --- realized (per-snapshot) utilities ---------------------------------


def realized_utility_rec_all(adj: np.ndarray, n: int, acceptance: float) -> np.ndarray:
    """Realized utility of all 2n nodes, recommender terms included.

    Node i's base utility is its cross-community followers minus its
    cross-community friends. The recommender adds (a) the expected number
    of cross links it would create for i, i.e. acceptance times the summed
    proposal ratios over missing cross pairs (i, j), and (b) a bridging
    reward of acceptance/(n-1) for every (cross friend j, in-group
    follower i') pair of i where i' does not already follow j. Both terms
    are evaluated exactly on the snapshot, without clamping the ratios;
    with acceptance 0 only the base utility remains.

    ``adj`` is the boolean 2n x 2n adjacency, or a (k, 2n, 2n) stack of
    them, which gives a (k, 2n) stack of utilities equal to k calls. The
    kernel works in contact space: each of the E cross edges, friend u to
    follower v, gives the contacts (x, y) = (u, v) and (v, u), and the
    reach of a contact is the number of in-group followers of y that x
    has no cross edge to. Both reward terms are sums of reaches: the
    expected links of x over all its contacts (the support of
    ``graph.two_hop_support`` summed over x's missing cross pairs), the
    bridging of v over its (u, v) contacts. The work is O(E n), and
    sampled snapshots have E = O(n). Every partial sum is an exact
    integer, so no summation order can change a bit of the result.
    """
    integer("n", n, 1)
    size = 2 * n
    if adj.shape[-2:] != (size, size) or adj.ndim not in (2, 3):
        raise ValueError(f"adj must be {size}x{size}, or a stack of them, for n={n}, got {adj.shape}")
    if adj.dtype != bool:
        raise ValueError(f"adj must be a bool array, got dtype {adj.dtype}")
    probability("acceptance", acceptance)
    rows = adj.reshape(-1, size)  # node i of snapshot s is row s * 2n + i
    cross = rows.copy()
    blocks = cross.reshape(-1, 2, n, 2, n)
    blocks[:, 0, :, 0] = blocks[:, 1, :, 1] = False
    # friend u -> follower v, row-major; a flat nonzero is several times faster than a 2-D one
    u, j = np.divmod(np.flatnonzero(cross), size)
    v = u - u % size + j
    nodes = len(rows)
    base = (np.bincount(u, minlength=nodes) - np.bincount(v, minlength=nodes)).astype(np.float64)
    if n == 1:
        return base.reshape(adj.shape[:-1])
    x, y = np.concatenate((u, v)), np.concatenate((v, u))
    reach = ((rows ^ cross)[y] > cross[x]).sum(axis=1)
    # every reach counts to x's expected links, and the reach of (u, v) to v's bridging
    rewards = np.bincount(np.concatenate((x, v)), np.concatenate((reach, reach[: len(u)])), nodes)
    return (base + acceptance / (n - 1) * rewards).reshape(adj.shape[:-1])


# --- expected (two-player) utilities ------------------------------------


def expected_utility_rec(s: StrategyPair, acceptance: float, role: PlayerRole) -> float:
    """Expected per-node utility with the recommender (large-n form).

    Quadratic in the strategies, and exactly own - other (no recommender) at c = 0:
    own - other + c * (other * (2 - own - other) + own * (1 - own)).
    """
    probability("acceptance", acceptance)
    own, other = (s.p_r, s.p_b) if role is PlayerRole.RED else (s.p_b, s.p_r)
    return own - other + acceptance * (other * (2.0 - own - other) + own * (1.0 - own))


# --- best responses and equilibria ---------------------------------------


def _integration_p(acceptance: float) -> float:
    # (1 + 1/c) / 3 rather than 1/(3c) + 1/3: both are the same real number,
    # but this form makes nash_equilibrium(0.8) hit 0.75 exactly in floats.
    return (1.0 + 1.0 / acceptance) / 3.0


def best_response(acceptance: float, opponent_p: float) -> float:
    """Utility-maximizing own probability against ``opponent_p``.

    With acceptance c = 0 the recommender terms vanish and staying fully
    in-group strictly dominates, so the response is 1. Otherwise the
    quadratic's stationary point (1/c + 1 - opponent_p)/2 is clamped into
    the action set, which also covers c <= 1/2 where 1 is always optimal.
    """
    probability("acceptance", acceptance)
    probability("opponent_p", opponent_p, positive=True)
    if acceptance == 0.0:
        return 1.0
    # Written as a deviation from the equilibrium point so that the
    # equilibrium is a bit-exact fixed point for every acceptance value.
    star = _integration_p(acceptance)
    raw = star + (star - opponent_p) / 2.0
    return min(1.0, max(ACTION_FLOOR, raw))


def nash_equilibrium(acceptance: float) -> EquilibriumResult:
    """Unique equilibrium of the game at the given acceptance probability."""
    probability("acceptance", acceptance)
    if acceptance <= 0.5:
        return EquilibriumResult(StrategyPair(1.0, 1.0), Regime.SEGREGATION)
    p = _integration_p(acceptance)
    return EquilibriumResult(StrategyPair(p, p), Regime.INTEGRATION)


def iterated_dominance(acceptance: float, iterations: int) -> list[tuple[float, float]]:
    """Nested undominated-action intervals for acceptance above 1/2.

    Starts at [1/(2c), 1]; each round maps the previous endpoints through
    the best-response line, halving the width, so both endpoints converge
    to the equilibrium value.
    """
    if not 0.5 < probability("acceptance", acceptance) <= 1.0:
        raise ValueError("iterated dominance applies only for acceptance in (1/2, 1]")
    integer("iterations", iterations, 1)
    inv = 1.0 / acceptance
    lo, hi = 0.5 * inv, 1.0
    out = [(lo, hi)]
    for _ in range(iterations - 1):
        lo, hi = (inv + 1.0 - hi) / 2.0, (inv + 1.0 - lo) / 2.0
        out.append((lo, hi))
    return out


def cross_partial(acceptance: float, s: StrategyPair, h: float) -> float:
    """Central finite-difference estimate of d2 U_red / (d p_r d p_b).

    The expected utility is quadratic, so for any valid step this equals
    minus the acceptance probability up to rounding. The step ``h`` is a
    positive real number, and all four stencil points must stay inside
    (0, 1]; ``StrategyPair`` rejects any other.
    """
    if not real("h", h) > 0.0:  # NaN fails this test
        raise ValueError(f"h must be positive, got {h}")

    def u(pr: float, pb: float) -> float:
        return expected_utility_rec(StrategyPair(pr, pb), acceptance, PlayerRole.RED)

    return (
        u(s.p_r + h, s.p_b + h)
        - u(s.p_r + h, s.p_b - h)
        - u(s.p_r - h, s.p_b + h)
        + u(s.p_r - h, s.p_b - h)
    ) / (4.0 * h * h)

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
from .graph import two_hop_support

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
    acceptance_probability: float


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

    ``adj`` is the boolean 2n x 2n adjacency. Each term is summed per
    community block; the proposal ratios read ``graph.two_hop_support``,
    the support the recommender pass draws from, and every partial sum is
    an exact integer.
    """
    if adj.shape != (2 * n, 2 * n):
        raise ValueError(f"adj must be {2 * n}x{2 * n} for n={n}, got shape {adj.shape}")
    red, blue = slice(0, n), slice(n, 2 * n)
    support = two_hop_support(adj, n)
    base, expected_links, bridging = np.empty((3, 2 * n))
    for own, other in ((red, blue), (blue, red)):
        followers, in_group = adj[own, other], adj[own, own]
        friends = adj[other, own].astype(np.float64)
        in_friends = friends.sum(axis=0)
        base[own] = followers.sum(axis=1) - in_friends
        expected_links[own] = (support[own, other] * ~followers).sum(axis=1)
        # shared[i, i']: cross friends that i and i' have in common
        shared = friends.T @ friends
        bridging[own] = in_friends * in_group.sum(axis=1) - (in_group * shared).sum(axis=1)
    if n == 1:
        return base
    return base + acceptance / (n - 1) * (expected_links + bridging)


# --- expected (two-player) utilities ------------------------------------


def expected_utility_base(s: StrategyPair, role: PlayerRole) -> float:
    """Expected per-node utility without the recommender: own p minus other p."""
    if role is PlayerRole.RED:
        return s.p_r - s.p_b
    return s.p_b - s.p_r


def expected_utility_rec(s: StrategyPair, acceptance: float, role: PlayerRole) -> float:
    """Expected per-node utility with the recommender (large-n form).

    Quadratic in the strategies:
    own - other + c * (other * (2 - own - other) + own * (1 - own)).
    """
    if not 0.0 <= acceptance <= 1.0:
        raise ValueError(f"acceptance must be in [0, 1], got {acceptance}")
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
    if not 0.0 <= acceptance <= 1.0:
        raise ValueError(f"acceptance must be in [0, 1], got {acceptance}")
    if not 0.0 < opponent_p <= 1.0:
        raise ValueError(f"opponent_p must be in (0, 1], got {opponent_p}")
    if acceptance == 0.0:
        return 1.0
    # Written as a deviation from the equilibrium point so that the
    # equilibrium is a bit-exact fixed point for every acceptance value.
    star = _integration_p(acceptance)
    raw = star + (star - opponent_p) / 2.0
    return min(1.0, max(ACTION_FLOOR, raw))


def nash_equilibrium(acceptance: float) -> EquilibriumResult:
    """Unique equilibrium of the game at the given acceptance probability."""
    if not 0.0 <= acceptance <= 1.0:
        raise ValueError(f"acceptance must be in [0, 1], got {acceptance}")
    if acceptance <= 0.5:
        return EquilibriumResult(StrategyPair(1.0, 1.0), Regime.SEGREGATION, acceptance)
    p = _integration_p(acceptance)
    return EquilibriumResult(StrategyPair(p, p), Regime.INTEGRATION, acceptance)


def iterated_dominance(acceptance: float, iterations: int) -> list[tuple[float, float]]:
    """Nested undominated-action intervals for acceptance above 1/2.

    Starts at [1/(2c), 1]; each round maps the previous endpoints through
    the best-response line, halving the width, so both endpoints converge
    to the equilibrium value.
    """
    if not 0.5 < acceptance <= 1.0:
        raise ValueError("iterated dominance applies only for acceptance in (1/2, 1]")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
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
    minus the acceptance probability up to rounding. All four stencil
    points must stay inside (0, 1].
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    for p in (s.p_r - h, s.p_r + h, s.p_b - h, s.p_b + h):
        if not 0.0 < p <= 1.0:
            raise ValueError("finite-difference stencil leaves the action set (0, 1]")

    def u(pr: float, pb: float) -> float:
        return expected_utility_rec(StrategyPair(pr, pb), acceptance, PlayerRole.RED)

    return (
        u(s.p_r + h, s.p_b + h)
        - u(s.p_r + h, s.p_b - h)
        - u(s.p_r - h, s.p_b + h)
        + u(s.p_r - h, s.p_b - h)
    ) / (4.0 * h * h)

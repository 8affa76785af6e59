"""Two-community directed edge-formation game: simulation and analysis."""

from .blockmodel import (
    BlockProbabilityMatrix,
    StrategyPair,
    block_matrix,
    sample_adjacency,
    sample_snapshot,
)
from .dynamics import (
    MyopicReport,
    ProtocolConfig,
    SemiMarkovChain,
    TraceRecord,
    run_protocol,
    verify_myopic_optimality,
    write_trace_csv,
)
from .game import (
    EquilibriumResult,
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
from .graph import (
    DirectedGraph,
    segregation_measure,
    segregation_value,
    two_hop_support,
)
from .opinion import (
    OpinionConfig,
    OpinionRecord,
    init_geometric_graph,
    run_opinion,
    tail_mean_segregation,
)
from .recommender import (
    RecommendationOutcome,
    RecommenderConfig,
    recommendation_probability,
    run_recommender,
)
from .seeding import substream

__all__ = [
    "BlockProbabilityMatrix",
    "DirectedGraph",
    "EquilibriumResult",
    "MyopicReport",
    "OpinionConfig",
    "OpinionRecord",
    "PlayerRole",
    "ProtocolConfig",
    "RecommendationOutcome",
    "RecommenderConfig",
    "Regime",
    "SemiMarkovChain",
    "StrategyPair",
    "TraceRecord",
    "best_response",
    "block_matrix",
    "cross_partial",
    "expected_utility_base",
    "expected_utility_rec",
    "init_geometric_graph",
    "iterated_dominance",
    "nash_equilibrium",
    "realized_utility_rec_all",
    "recommendation_probability",
    "run_opinion",
    "run_protocol",
    "run_recommender",
    "sample_adjacency",
    "sample_snapshot",
    "segregation_measure",
    "segregation_value",
    "substream",
    "tail_mean_segregation",
    "two_hop_support",
    "verify_myopic_optimality",
    "write_trace_csv",
]

"""Toolkit for window-recoverable constrained systems.

Constructions, capacity computations, max-entropy and entropy-relaxed Markov
measures, exact periodic-point counting, and storage codes on cycles.
"""

from .graphs import (
    LabeledDigraph,
    Word,
    adjacency,
    count_words,
    de_bruijn,
    essential_subgraph,
    higher_power,
    is_strongly_connected,
    path_count,
    perron_eigenvalue,
    scc_decompose,
    trace_power,
    words_of_length,
)
from .measures import (
    EpsilonConstruction,
    EpsilonParams,
    InconsistentMarginalError,
    MarkovMeasure,
    WindowEntropyReport,
    binary_entropy,
    delta_from_epsilon,
    entropy_rate,
    epsilon_construction,
    is_epsilon_recoverable,
    map_decoder,
    markov_approximation,
    max_entropy_measure,
    symbol_marginal,
    window_conditional_entropy,
    window_marginal,
)
from .storage import (
    CycleStorageCode,
    PeriodicPoints,
    periodic_points,
    perrin_count,
    storage_code_for_cycle,
    verify_storage_code,
)
from .systems import (
    ForbiddenSet,
    RecoverableSystem,
    RecoveryTable,
    VerificationResult,
    capacity,
    capacity_formula,
    edge_cover_system,
    exhaustive_max_capacity,
    marker_system,
    presentation_from_forbidden,
    recursive_bound,
    recursive_chain_bound,
    recursive_extend,
    system_capacity,
    truncated_debruijn_system,
    truncated_matrix,
    upper_bound,
    verify_recoverable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

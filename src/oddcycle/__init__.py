"""Odd-cycle and CHSH nonlocal games: values, torus blockers, consistent
regions, norms, and seeded Monte Carlo estimators."""

__version__ = "0.1.0"

from .games import (
    DeterministicStrategy,
    GameSpec,
    ValueReport,
    classical_value_exact,
    classical_value_search,
    evaluate_strategy,
    make_chsh_game,
    make_odd_cycle_game,
    repetition_decay_check,
)
from .quantum import (
    MeasurementBasis,
    QubitStrategy,
    SharedState,
    bell_phase_state,
    bias_and_approximality,
    canonical_odd_cycle_strategy,
    expectation,
    optimize_angles,
    optimize_restrictions,
    win_probability,
    xor_error_functional,
)
from .torus import (
    CyclePath,
    RegionSet,
    TorusGraph,
    geodesic,
    giant_detect,
    make_cube,
    make_section,
    make_tube,
    min_blocker,
    region_stats,
    transverse_cut_blocker,
    verify_blocker,
    winding_and_parity,
)
from .regions import (
    ConsistentRegion,
    DiamondVector,
    Pearl,
    blocker_integral_bound,
    build_pearl,
    diamond_norm,
    gap_overlap,
    grow_consistent_cycle,
    lambda_measure,
    max_consistent_region,
    value_via_regions,
)
from .experiments import (
    ContractionMap,
    ExperimentConfig,
    ExperimentReport,
    contraction_map,
    estimate_events,
    foam_probes,
    proposition_prefactors,
    restricted_values,
    sample_torical_graph,
)

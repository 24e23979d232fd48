"""The package's export list is the union of its modules' export lists."""

import lambdacoal
from lambdacoal import (
    coalescent,
    errors,
    measures,
    population,
    sampling_formula,
    streams,
    subordinator,
    validation,
)

MODULES = [
    errors,
    measures,
    sampling_formula,
    coalescent,
    subordinator,
    population,
    validation,
    streams,
]

# the names the package exported before the module lists became the only
# export lists; none of them may go
PINNED = {
    "AtomicMeasure", "BetaMeasure", "BeyondWindowError", "Composition",
    "CompositionSample", "DEFAULT_PARTITION_CAP", "DegenerateMeasureError",
    "DensityTableMeasure", "DustConditionError", "FirstPartLaw",
    "InfiniteActivityError", "LambdaCoalError", "LitterHistory",
    "MeasureSpecError", "NonIntegrableError", "PartitionCapError",
    "PartitionVector", "PopulationMeasure", "PopulationSupportError",
    "RateTable", "SamplingDistribution", "StuckChainError",
    "SubordinatorWindow", "ValidationCase", "ValidationReport",
    "WindowBudgetError", "WindowExhaustionError", "build_rate_table",
    "chi_square_gof", "chi_square_two_sample", "choose_truncation",
    "coalescence_rate", "composition_law", "cutoff_deviation",
    "default_plan", "default_window_horizon", "delete_random_ball",
    "derive_rng", "dust_integral", "edge_plan",
    "enumerate_partition_vectors", "ewens", "first_part_law",
    "first_part_laws_upto", "first_part_weight", "forward_simulate",
    "litter_intensity_tail", "litter_size_at", "load_plan",
    "measure_descriptor", "parse_measure", "reports_to_csv",
    "reports_to_json", "require_population_support", "rho_state",
    "run_validation", "sample_composition_detailed",
    "sample_family_partition_chain", "sample_family_partition_set",
    "sample_jump_sizes", "sample_window", "sequential_composition",
    "simulate_frozen_coalescent", "single_ball_integral", "solve",
    "solve_exact", "total_mass", "total_variation", "window_from_points",
}


def test_package_exports_are_the_module_lists():
    names = lambdacoal.__all__
    assert names == sorted(name for module in MODULES for name in module.__all__)
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lambdacoal, name) is getattr(module, name), name
    assert len(PINNED) == 69
    assert PINNED <= set(names)

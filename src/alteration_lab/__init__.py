"""Laboratory for pattern-free graph construction by random-graph alteration,
with online Ramsey game engines and exact combinatorial statistics."""

from .alteration import (
    AlterationResult,
    IndependenceResult,
    RamseyCertificate,
    disjoint_collection_alteration,
    greedy_alteration,
    independence_number,
    ramsey_certificate,
    refined_alteration,
)
from .copies import (
    Copy,
    CopyIndex,
    GlobalCopyStats,
    KSetStats,
    PackingInfeasibleError,
    PackingReport,
    enumerate_copies,
    global_copy_stats,
    has_copy_through_edge,
    k_set_stats,
    packing_report,
)
from .density import (
    DensityReport,
    density_report,
    minimal_balanced_core,
    r_density_report,
    two_density_report,
)
from .experiments import (
    ExperimentParams,
    ExperimentResult,
    InfeasibleError,
    derive_parameters,
    derived_n_p,
    run_concentration_experiment,
    run_copy_count_experiment,
    run_game_experiment,
    run_planted_witness,
    run_ramsey_search,
    run_tail_check,
    write_result,
)
from .games import (
    CouplingReport,
    DenseFirstProposer,
    FixedDecider,
    GameTranscript,
    PumpBuilder,
    RandomBuilder,
    RandomDecider,
    RandomLegalProposer,
    RuleViolation,
    ThresholdPainter,
    builder_final_graphs,
    coupled_rps_check,
    rps_final_graph,
    run_online_ramsey,
    run_rps,
)
from .graphs import (
    Graph,
    UniformHypergraph,
    complete_graph,
    complete_multipartite,
    complete_uniform,
    cycle_graph,
    path_graph,
    pattern_from_name,
    tight_path,
)
from .randomness import (
    EdgeLabelTable,
    RandomSource,
    derive_labels,
    sample_gnp,
    sample_uniform_hypergraph,
)

__version__ = "0.1.0"

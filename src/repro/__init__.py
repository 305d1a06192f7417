"""repro — reproduction of "On the Parallelization of MCMC for Community
Detection" (Wanye, Gleyzer, Kao, Feng; ICPP 2022).

Implements stochastic block partitioning (SBP) and its two parallel MCMC
variants — asynchronous SBP (A-SBP, asynchronous Gibbs) and hybrid SBP
(H-SBP, serial high-degree pass + async rest) — on top of a from-scratch
degree-corrected stochastic blockmodel substrate, plus the generators,
metrics and benchmark harness needed to regenerate every table and
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import generate_dcsbm, DCSBMParams, run_sbp, SBPConfig, Variant
>>> graph, truth = generate_dcsbm(
...     DCSBMParams(num_vertices=150, num_communities=4,
...                 within_between_ratio=6.0, mean_degree=8.0), seed=1)
>>> result = run_sbp(graph, SBPConfig(variant=Variant.HSBP, seed=1))
>>> result.num_blocks >= 1
True
"""

from repro.errors import (
    ReproError,
    GraphFormatError,
    GraphValidationError,
    GeneratorError,
    BlockmodelError,
    ConvergenceError,
    BackendError,
    ExperimentError,
    SerializationError,
    CheckpointError,
)
from repro.graph import (
    Graph,
    GraphBuilder,
    read_edge_list,
    write_edge_list,
    read_matrix_market,
    write_matrix_market,
    GraphSummary,
    summarize,
)
from repro.generators import (
    DCSBMParams,
    generate_dcsbm,
    SyntheticSpec,
    SYNTHETIC_SPECS,
    generate_synthetic,
    corpus_ids,
    RealWorldSpec,
    REAL_WORLD_SPECS,
    generate_real_world_standin,
    real_world_ids,
)
from repro.sbm import (
    Blockmodel,
    description_length,
    normalized_description_length,
)
from repro.core import (
    Variant,
    SBPConfig,
    SBPResult,
    run_sbp,
    run_best_of,
    best_of,
)
from repro.metrics import (
    adjusted_rand_index,
    normalized_mutual_information,
    directed_modularity,
    partition_mdl,
    partition_normalized_mdl,
    total_influence,
    fit_correlation,
)
from repro.io import (
    save_result,
    load_result,
    save_assignment,
    load_assignment,
    save_blockmodel,
    load_blockmodel,
)
from repro.sampling import (
    SAMPLERS,
    SampledGraph,
    sample_graph,
)
from repro.diagnostics import SweepTrace, trace_from_result, run_health
from repro.parallel import (
    BACKENDS,
    get_backend,
    SimulatedThreadModel,
)
from repro.resilience import (
    RunCheckpointer,
    ResilientBackend,
    InvariantAuditor,
    StopGuard,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "GraphFormatError",
    "GraphValidationError",
    "GeneratorError",
    "BlockmodelError",
    "ConvergenceError",
    "BackendError",
    "ExperimentError",
    "SerializationError",
    "CheckpointError",
    # graph
    "Graph",
    "GraphBuilder",
    "read_edge_list",
    "write_edge_list",
    "read_matrix_market",
    "write_matrix_market",
    "GraphSummary",
    "summarize",
    # generators
    "DCSBMParams",
    "generate_dcsbm",
    "SyntheticSpec",
    "SYNTHETIC_SPECS",
    "generate_synthetic",
    "corpus_ids",
    "RealWorldSpec",
    "REAL_WORLD_SPECS",
    "generate_real_world_standin",
    "real_world_ids",
    # sbm
    "Blockmodel",
    "description_length",
    "normalized_description_length",
    # core
    "Variant",
    "SBPConfig",
    "SBPResult",
    "run_sbp",
    "run_best_of",
    "best_of",
    # metrics
    "adjusted_rand_index",
    "normalized_mutual_information",
    "directed_modularity",
    "partition_mdl",
    "partition_normalized_mdl",
    "total_influence",
    "fit_correlation",
    # io
    "save_result",
    "load_result",
    "save_assignment",
    "load_assignment",
    "save_blockmodel",
    "load_blockmodel",
    # sampling
    "SAMPLERS",
    "SampledGraph",
    "sample_graph",
    # diagnostics
    "SweepTrace",
    "trace_from_result",
    "run_health",
    # parallel
    "BACKENDS",
    "get_backend",
    "SimulatedThreadModel",
    # resilience
    "RunCheckpointer",
    "ResilientBackend",
    "InvariantAuditor",
    "StopGuard",
    "__version__",
]

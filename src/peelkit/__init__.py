"""Parallel peeling on random r-uniform hypergraphs.

Sampling of H_r(n, c/n^(r-1)), round-synchronous peeling to the k-core with a
per-round trace, emergence-threshold computation, dense-subgraph verification
oracles, and seeded experiment sweeps over n.
"""

from .density import (
    ContractionReport,
    DensityReport,
    contraction_check,
    count_dense_subgraphs,
    expected_count_bound,
    max_density_subgraph_bruteforce,
)
from .errors import (
    BracketError,
    BudgetExceededError,
    DuplicateEdgeError,
    EdgeArityError,
    PeelkitError,
    VertexRangeError,
)
from .experiments import (
    FitResult,
    SweepConfig,
    TrialRecord,
    component_growth_check,
    fit_growth,
    read_sweep_csv,
    run_trial,
    sweep,
)
from .hypergraph import (
    Hypergraph,
    average_degree,
    build_hypergraph,
    connected_components,
    induced_subgraph,
    read_hg,
    write_hg,
)
from .models import (
    ModelParams,
    mix_seed,
    sample_binomial_hypergraph,
)
from .peeling import (
    PeelingTrace,
    RoundRecord,
    graph_after_rounds,
    parallel_peel,
    sequential_kcore,
)
from .thresholds import (
    ThresholdResult,
    coefficients,
    compute_threshold_analytic,
    compute_threshold_empirical,
    poisson_tail,
    threshold_objective,
    threshold_report,
)

__version__ = "0.2.0"

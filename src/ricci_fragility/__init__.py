"""Average Ollivier-Ricci curvature of rolling correlation networks.

The package builds, for each rolling window of a price panel, a filtered
correlation network (minimum spanning tree plus high-correlation edges),
computes exact Ollivier-Ricci curvature on the hop metric for every edge
or node pair, and tracks the average as a fragility indicator. A bounds
lab checks closed-form perturbation inequalities on random instances,
and a sub-sampling module searches for curvature-extremal subgraphs.
"""

from .bounds import (
    BoundReport,
    BoundsSuiteResult,
    PerturbationInstance,
    add_edge_instance,
    check_lemma_affected,
    check_prop1,
    check_prop2,
    kn_minus_edge_instance,
    random_instance,
    run_bounds_suite,
    sharpness_reports,
    sup_distance_change,
)
from .diagnostics import (
    AcfResult,
    autocorrelation,
    t_sweep,
    write_acf_csv,
    xi_sweep,
)
from .errors import (
    ConfigError,
    DataError,
    DisconnectedGraphError,
    GraphError,
    InfiniteDistanceError,
    InsufficientOverlapError,
    OracleBudgetError,
)
from .graphs import (
    HopDistanceMatrix,
    MarketGraph,
    augment_high_value_edges,
    build_complete_graph,
    hop_distances,
    induced_subgraph,
    minimum_spanning_tree,
)
from .indicator import (
    DistanceTransform,
    IndicatorSeries,
    WindowConfig,
    correlation_matrix,
    distance_from_correlation,
    indicator_series,
    window_graph,
    write_series_csv,
    write_series_json,
    write_sweep_csv,
)
from .ingestion import (
    PriceMatrix,
    load_price_csv,
    screen_entities,
    write_price_csv,
)
from .subsample import (
    SubsampleConfig,
    exhaustive_extremum,
    extremal_subgraph,
    subsample_indicator_series,
)
from .synthetic import SCENARIOS, comoving, iid, make, regime_switch
from .transport import (
    CurvatureReport,
    NodeMeasure,
    average_curvature,
    edge_curvature,
    node_measure,
    wasserstein1_cost,
    wasserstein1_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DisconnectedGraphError",
    "GraphError",
    "InfiniteDistanceError",
    "InsufficientOverlapError",
    "OracleBudgetError",
    "HopDistanceMatrix",
    "MarketGraph",
    "augment_high_value_edges",
    "build_complete_graph",
    "hop_distances",
    "induced_subgraph",
    "minimum_spanning_tree",
    "CurvatureReport",
    "NodeMeasure",
    "average_curvature",
    "edge_curvature",
    "node_measure",
    "wasserstein1_cost",
    "wasserstein1_oracle",
    "PriceMatrix",
    "load_price_csv",
    "write_price_csv",
    "screen_entities",
    "SCENARIOS",
    "make",
    "regime_switch",
    "iid",
    "comoving",
    "DistanceTransform",
    "WindowConfig",
    "IndicatorSeries",
    "correlation_matrix",
    "distance_from_correlation",
    "window_graph",
    "indicator_series",
    "write_series_csv",
    "write_series_json",
    "write_sweep_csv",
    "AcfResult",
    "autocorrelation",
    "write_acf_csv",
    "xi_sweep",
    "t_sweep",
    "BoundReport",
    "BoundsSuiteResult",
    "PerturbationInstance",
    "add_edge_instance",
    "sup_distance_change",
    "check_prop1",
    "check_prop2",
    "check_lemma_affected",
    "random_instance",
    "run_bounds_suite",
    "kn_minus_edge_instance",
    "sharpness_reports",
    "SubsampleConfig",
    "extremal_subgraph",
    "exhaustive_extremum",
    "subsample_indicator_series",
    "__version__",
]

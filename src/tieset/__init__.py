"""Minimal tie sets for joining a newcomer node to an existing network.

The library answers two questions about an undirected connected graph G and
a newcomer u: which tie set S places u in the center of the combined graph
(a *broker set*), and which tie set keeps the combined diameter within a
target (a *delta-enabling set*).  It ships eight centering heuristics, two
diameter-reduction heuristics, exact brute-force oracles, seeded random
graph models, a hardness-reduction gadget, and a CSV experiment harness.
"""

__version__ = "0.1.0"

from .graph import (
    CapExceededError,
    Graph,
    GraphError,
    MetricProfile,
    NodeSet,
    NotConnectedError,
    UNREACHABLE,
    augment,
    betweenness,
    bfs_distances,
    build_graph,
    connected_components,
    induced_subgraph,
    is_complete,
    is_connected,
    is_diametrically_uniform,
    largest_connected_component,
    metric_profile,
)
from .broker import (
    AlgorithmReport,
    BrokerHeuristic,
    broker_decision,
    brute_force_min_broker,
    brute_force_min_dominating,
    is_broker_set,
    is_dominating_set,
    is_sub_radius_dominating,
    run_heuristic,
)
from .diameter import (
    DeltaReport,
    brute_force_min_delta_enabling,
    cp_algorithm,
    is_delta_enabling,
    periphery_algorithm,
    preserve_diameter,
)
from .generators import (
    BA,
    NWS,
    GadgetMap,
    RandomModelParams,
    generate,
    reduction_gadget,
)
from .datasets import (
    DatasetDescriptor,
    EdgeListFormatError,
    KNOWN_STATS,
    NetworkStats,
    load_edge_list,
    write_edge_list,
)

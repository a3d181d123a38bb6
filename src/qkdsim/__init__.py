"""Simulator and policy library for key-constrained packet routing."""

from .analysis import (
    CapacityVerdict,
    RunSummary,
    StabilityVerdict,
    constructed_uniform_boundary,
    stability_test,
    summarize,
    unicast_capacity,
)
from .config import ExperimentConfig, preset_config
from .engine import MetricsRecord, simulate
from .keying import KeyBank, KeySpec, bb84_round
from .policy import (
    BackpressureMode,
    MultilevelMode,
    SingleQueueMode,
    TandemMode,
    VirtualQueues,
    assign_weights,
)
from .routing import (
    Route,
    anycast_route,
    min_weight_path,
    min_weight_spanning_tree,
    steiner_tree_approx,
)
from .topology import EdgeSpec, NetworkGraph, build_graph, capacitated_transform, erdos_renyi
from .traffic import (
    PPBP,
    Anycast,
    Bernoulli,
    Broadcast,
    Multicast,
    TrafficClass,
    TruncatedPoisson,
    Unicast,
)

__version__ = "0.1.0"

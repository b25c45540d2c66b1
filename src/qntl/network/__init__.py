"""Network layer: topologies, routing, and the node-compromise,
route-diversion, and connection-flood experiments."""
from .dos import DosResult, Mitigation, MitigationKind, dos_simulate
from .experiments import (
    DecayRow,
    DecayTable,
    DiversionPair,
    DiversionResult,
    diversion_experiment,
    untrusted_node_experiment,
)
from .paths import count_viable_paths, hop_distance, route
from .topology import (
    DEFAULT_PARAMS,
    NodeInfo,
    Topology,
    TopologyKind,
    generate_topology,
)

__all__ = [
    "DosResult",
    "Mitigation",
    "MitigationKind",
    "dos_simulate",
    "DecayRow",
    "DecayTable",
    "DiversionPair",
    "DiversionResult",
    "diversion_experiment",
    "untrusted_node_experiment",
    "count_viable_paths",
    "hop_distance",
    "route",
    "DEFAULT_PARAMS",
    "NodeInfo",
    "Topology",
    "TopologyKind",
    "generate_topology",
]

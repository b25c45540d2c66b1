"""Network layer: topologies, routing, and the node-compromise,
route-diversion, and connection-flood experiments.

Each name loads its submodule on first access, so a run that floods one
receiver never loads the path counter, and one that counts paths never
loads the flood simulator.
"""
import importlib

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
    "NodeInfo",
    "Topology",
    "TopologyKind",
    "generate_topology",
]

# The submodule that defines each name in __all__.
_HOME = {
    "DosResult": "dos",
    "Mitigation": "dos",
    "MitigationKind": "dos",
    "dos_simulate": "dos",
    "DecayRow": "experiments",
    "DecayTable": "experiments",
    "DiversionPair": "experiments",
    "DiversionResult": "experiments",
    "diversion_experiment": "experiments",
    "untrusted_node_experiment": "experiments",
    "count_viable_paths": "paths",
    "hop_distance": "paths",
    "route": "paths",
    "NodeInfo": "topology",
    "Topology": "topology",
    "TopologyKind": "topology",
    "generate_topology": "topology",
}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this hook
    return value

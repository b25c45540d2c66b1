"""qntl: a layered security simulator for early quantum networks.

The package walks the stack the way an attacker would: photonic sources and
channels (:mod:`qntl.photonics`), small exact state vectors
(:mod:`qntl.quantum`), key-distribution protocols with pluggable attack
hooks (:mod:`qntl.qkd`), the attacks themselves (:mod:`qntl.attacks`), and
network-scale topology, routing, and availability questions
(:mod:`qntl.network`).  Every experiment is reproducible from a single seed
through the stream discipline in :mod:`qntl.stats`, and the ``qntl``
command line exposes the full catalog of scenarios.

Each layer loads on first use (``qntl.qkd`` or ``import qntl.qkd``), so a
command pays only for the layers it runs.
"""
import importlib

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "attacks",
    "cli",
    "network",
    "photonics",
    "qkd",
    "quantum",
    "stats",
]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")

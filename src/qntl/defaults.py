"""Constants that a layer shares with the CLI: the key-exchange session
defaults of :mod:`qntl.qkd` and the experiment registry, and the decay
table's aggregate marker that the plot recipes read.  This module imports
nothing, so the CLI reads them without loading the layer."""

__all__ = [
    "DEFAULT_ABORT_THRESHOLD",
    "DEFAULT_DISCLOSED_FRACTION",
    "CHSH_TEST_FRACTION",
    "CHSH_DETECTION_MARGIN",
    "AGGREGATE_DISTANCE",
]

# Abort when the disclosed-sample error rate exceeds this; the 11% figure is
# the usual one-way post-processing limit for prepare-and-measure exchange.
DEFAULT_ABORT_THRESHOLD = 0.11
DEFAULT_DISCLOSED_FRACTION = 0.1

# Entanglement-based exchange: fraction of rounds diverted to the CHSH test,
# and the acceptance margin above the classical bound of 2.
CHSH_TEST_FRACTION = 0.25
CHSH_DETECTION_MARGIN = 0.1

# The distance of a decay row that aggregates every sampled pair rather than
# one intact hop-distance bin.
AGGREGATE_DISTANCE = -1

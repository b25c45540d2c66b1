"""Photon counts through sources, loss channels, and threshold detectors.

A pulse is its photon count: the splitting attacks and the decoy analysis
only ever ask how many photons a pulse carries, and a protocol tracks the
encoded polarization itself, as a state vector at the point where it
measures.  The source and the loss channel act on an array of pulses and
draw from the caller's generator: a weak coherent source inverts one
uniform per pulse through the Poisson table that
:func:`~qntl.stats.poisson_sample_array` uses, and loss reads one uniform
per photon (independent per-photon survival, so Poisson statistics are
closed under transmission).  The detector decides one pulse at a uniform
the caller draws.  Intensity classes are announced by the labels
``"signal"`` and ``"decoy-<i>"``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import poisson_sample_array

__all__ = [
    "SIGNAL",
    "decoy_label",
    "LossChannel",
    "Detector",
    "emit_pulse",
    "transmit",
    "detect",
]

SIGNAL = "signal"


def decoy_label(index: int = 0) -> str:
    """Announced label of decoy class ``index``."""
    if index < 0:
        raise ValueError("decoy index must be >= 0")
    return f"decoy-{index}"


@dataclass(frozen=True)
class LossChannel:
    """Memoryless loss channel with per-photon survival probability."""

    transmittance: float

    def __post_init__(self) -> None:
        eta = float(self.transmittance)
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"transmittance must lie in [0, 1], got {eta}")
        object.__setattr__(self, "transmittance", eta)


@dataclass(frozen=True)
class Detector:
    """Threshold detector.  The fields default to an ideal detector; the
    bb84 and decoy experiments set both."""

    efficiency: float = 1.0
    dark_count_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.efficiency) <= 1.0:
            raise ValueError("detector efficiency must lie in [0, 1]")
        if not 0.0 <= float(self.dark_count_prob) <= 1.0:
            raise ValueError("dark count probability must lie in [0, 1]")

    def click_probability(self, photons: int | np.ndarray) -> float | np.ndarray:
        """1 - (1 - dark)(1 - efficiency)^photons: any arriving photon
        registers, or a dark count fires.  ``photons`` is an int or an
        integer array."""
        return 1.0 - (1.0 - self.dark_count_prob) * (1.0 - self.efficiency) ** photons


def emit_pulse(mean_photons: float | None, rng: np.random.Generator, size: int) -> np.ndarray:
    """Photon counts of ``size`` pulses, as an integer array.

    A weak coherent source (``mean_photons`` a positive float) draws
    Poisson(mean_photons) counts by :func:`~qntl.stats.poisson_sample_array`,
    one uniform per pulse.  The ideal single-photon source (``None``) emits
    exactly one photon a pulse and a source of mean 0 none; neither draws.
    """
    if mean_photons is None:
        return np.ones(size, np.intp)
    if mean_photons == 0:
        return np.zeros(size, np.intp)
    return poisson_sample_array(mean_photons, rng, size)


def transmit(photons: np.ndarray, channel: LossChannel, rng: np.random.Generator) -> np.ndarray:
    """Photons of each pulse that survive a loss channel.

    Draws one uniform per emitted photon, pulse after pulse; a photon
    survives when its uniform falls below the channel transmittance, so each
    pulse's survivor count is Binomial(photons, eta) and Poisson inputs stay
    Poisson with mean scaled by eta.
    """
    # Survivors among the first k photons, for k = 0, 1, ..., photons.sum().
    survived = np.zeros(int(photons.sum()) + 1, np.intp)
    np.cumsum(rng.random(survived.size - 1) < channel.transmittance, out=survived[1:])
    return np.diff(survived[np.cumsum(photons)], prepend=0)


def detect(photons: int, detector: Detector, u: float) -> bool:
    """Threshold click on ``photons`` arriving photons at the uniform ``u``,
    as a Python ``bool``: the bench tracer counts clicks by ``bool()`` of
    each result, and ``tests/test_bench_contract.py`` pins the type."""
    return u < detector.click_probability(photons)

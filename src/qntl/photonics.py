"""Photon counts through sources, loss channels, and threshold detectors.

A pulse is its photon count: the splitting attacks and the decoy analysis
only ever ask how many photons a pulse carries, and a protocol tracks the
encoded polarization itself, as a state vector at the point where it
measures.  Weak coherent sources draw their photon number from an exact
Poisson inversion, and loss acts as independent per-photon survival, so
Poisson statistics are closed under transmission.  Intensity classes are
announced by the labels ``"signal"`` and ``"decoy-<i>"``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import poisson_sample

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
    """Threshold detector; both fields exist for decoy-state analysis and
    default to the ideal values used everywhere else."""

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


def emit_pulse(mean_photons: float | None, rng: np.random.Generator) -> int:
    """Photon count of one pulse.

    A weak coherent source (``mean_photons`` a float) draws it from
    Poisson(mean_photons) by CDF inversion on one uniform; the ideal
    single-photon source (``None``) always emits exactly one photon and
    draws nothing.
    """
    if mean_photons is None:
        return 1
    return poisson_sample(mean_photons, rng)


def transmit(photons: int, channel: LossChannel, rng: np.random.Generator) -> int:
    """Photons that survive a loss channel.

    Each photon survives independently with probability equal to the
    channel transmittance (one scalar uniform per photon, the same draws as
    one array of ``photons`` uniforms), so the survivor count is
    Binomial(photons, eta) and Poisson inputs stay Poisson with mean scaled
    by eta.
    """
    eta = channel.transmittance
    survivors = 0
    for _ in range(photons):
        survivors += rng.random() < eta
    return survivors


def detect(photons: int, detector: Detector, rng: np.random.Generator) -> bool:
    """Threshold click on ``photons`` arriving photons, from one uniform."""
    return bool(rng.random() < detector.click_probability(photons))

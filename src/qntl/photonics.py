"""Photon counts through sources, loss channels, and threshold detectors.

A pulse is its photon count: the splitting attacks and the decoy analysis
only ever ask how many photons a pulse carries, and a protocol tracks the
encoded polarization itself, as a state vector at the point where it
measures.  The per-pulse functions read uniforms that the caller draws, so
a protocol can draw each kind for many pulses in one call: a weak coherent
source reads its photon number from an exact Poisson inversion of one
uniform, loss reads one uniform per photon (independent per-photon
survival, so Poisson statistics are closed under transmission), and the
detector one per pulse.  Intensity classes are announced by the labels
``"signal"`` and ``"decoy-<i>"``.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stats import poisson_cdf

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


def emit_pulse(mean_photons: float | None, u: float | None) -> int:
    """Photon count of one pulse.

    A weak coherent source (``mean_photons`` a positive float) reads it from
    the Poisson(mean_photons) CDF at the uniform ``u``
    (:func:`~qntl.stats.poisson_cdf`).  A source of mean 0 emits nothing
    and the ideal single-photon source (``None``) exactly one photon; both
    read no uniform and take ``u=None``.
    """
    if mean_photons is None:
        return 1
    if mean_photons == 0:
        return 0
    return bisect.bisect_left(poisson_cdf(mean_photons), u)


def transmit(photons: int, channel: LossChannel, uniforms: Sequence[float]) -> int:
    """Photons that survive a loss channel.

    Photon i survives when ``uniforms[i]`` (one uniform per photon) falls
    below the channel transmittance, so the survivor count is
    Binomial(photons, eta) and Poisson inputs stay Poisson with mean scaled
    by eta.
    """
    if len(uniforms) != photons:
        raise ValueError(f"need one uniform per photon: {photons} photons, {len(uniforms)} uniforms")
    eta = channel.transmittance
    survivors = 0
    for u in uniforms:
        survivors += u < eta
    return survivors


def detect(photons: int, detector: Detector, u: float) -> bool:
    """Threshold click on ``photons`` arriving photons at the uniform ``u``."""
    return u < detector.click_probability(photons)

"""Photon-pulse bookkeeping: sources, loss channels, and detection.

Pulses are classical records of what a source emitted (photon count, encoded
bit, basis, phase, intensity label); the encoded polarization only becomes a
state vector at the point where a protocol actually measures it.  Weak
coherent sources draw their photon number from an exact Poisson inversion,
and loss acts as independent per-photon survival, so Poisson statistics are
closed under transmission.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quantum import Basis
from .stats import poisson_sample

__all__ = [
    "TWO_PI",
    "SourceKind",
    "PhotonSource",
    "IntensityLabel",
    "SIGNAL",
    "decoy_label",
    "PhotonPulse",
    "LossChannel",
    "Detector",
    "emit_pulse",
    "transmit",
    "detect",
]

TWO_PI = 2.0 * math.pi


class SourceKind(Enum):
    WEAK_COHERENT = "weak-coherent"
    SINGLE_PHOTON = "single-photon"


@dataclass(frozen=True)
class PhotonSource:
    """Photon source model: weak coherent (Poisson mean) or ideal single-photon."""

    kind: SourceKind
    mean_photons: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is SourceKind.WEAK_COHERENT:
            mu = float(self.mean_photons)
            if not math.isfinite(mu) or mu < 0.0:
                raise ValueError(f"mean photons per pulse must be >= 0, got {mu}")
            object.__setattr__(self, "mean_photons", mu)

    @classmethod
    def weak_coherent(cls, mean_photons: float) -> "PhotonSource":
        return cls(kind=SourceKind.WEAK_COHERENT, mean_photons=mean_photons)

    @classmethod
    def ideal_single_photon(cls) -> "PhotonSource":
        return cls(kind=SourceKind.SINGLE_PHOTON, mean_photons=1.0)


@dataclass(frozen=True)
class IntensityLabel:
    """Publicly announced pulse class: the signal or an indexed decoy."""

    kind: str
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("signal", "decoy"):
            raise ValueError(f"intensity kind must be 'signal' or 'decoy', got {self.kind!r}")
        if self.index < 0:
            raise ValueError("decoy index must be >= 0")

    def __str__(self) -> str:
        return self.kind if self.kind == "signal" else f"decoy-{self.index}"


SIGNAL = IntensityLabel(kind="signal")


def decoy_label(index: int = 0) -> IntensityLabel:
    return IntensityLabel(kind="decoy", index=index)


@dataclass(frozen=True)
class PhotonPulse:
    """One emitted pulse and its classical sidecar data."""

    photon_count: int
    encoded_bit: int
    basis: Basis
    phase: float = 0.0
    intensity_label: IntensityLabel = SIGNAL

    def __post_init__(self) -> None:
        if self.photon_count < 0:
            raise ValueError("photon count must be >= 0")
        if self.encoded_bit not in (0, 1):
            raise ValueError("encoded bit must be 0 or 1")
        phase = float(self.phase)
        if not 0.0 <= phase < TWO_PI:
            raise ValueError(f"phase must lie in [0, 2*pi), got {phase}")
        object.__setattr__(self, "phase", phase)


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


def emit_pulse(
    source: PhotonSource,
    bit: int,
    basis: Basis,
    phase: float,
    intensity_label: IntensityLabel,
    rng: np.random.Generator,
) -> PhotonPulse:
    """Emit one pulse.

    A weak coherent source draws the photon count from Poisson(mu) by CDF
    inversion on one uniform; an ideal single-photon source always emits
    exactly one photon.  The phase is reduced into [0, 2*pi).
    """
    if source.kind is SourceKind.WEAK_COHERENT:
        count = poisson_sample(source.mean_photons, rng)
    else:
        count = 1
    return PhotonPulse(
        photon_count=count,
        encoded_bit=bit,
        basis=basis,
        phase=float(phase) % TWO_PI,
        intensity_label=intensity_label,
    )


def transmit(pulse: PhotonPulse, channel: LossChannel, rng: np.random.Generator) -> PhotonPulse:
    """Pass a pulse through a loss channel.

    Each photon survives independently with probability equal to the
    channel transmittance (one uniform per photon), so the survivor count is
    Binomial(photon_count, eta) and Poisson inputs stay Poisson with mean
    scaled by eta.
    """
    if pulse.photon_count == 0:
        return pulse
    survivors = int(np.count_nonzero(rng.random(pulse.photon_count) < channel.transmittance))
    return PhotonPulse(
        survivors, pulse.encoded_bit, pulse.basis, pulse.phase, pulse.intensity_label
    )


def detect(pulse: PhotonPulse, detector: Detector, rng: np.random.Generator) -> bool:
    """Threshold click: any photon registers, or a dark count fires.

    Click probability is 1 - (1 - dark)(1 - efficiency)^count.
    """
    miss_all = (1.0 - detector.efficiency) ** pulse.photon_count
    p_click = 1.0 - (1.0 - detector.dark_count_prob) * miss_all
    return bool(rng.random() < p_click)

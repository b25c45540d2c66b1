"""Tests for photon sources, loss channels, and threshold detection."""
import numpy as np
import pytest
from scipy.stats import poisson as sp_poisson

from qntl.photonics import (
    SIGNAL,
    Detector,
    LossChannel,
    decoy_label,
    detect,
    emit_pulse,
    transmit,
)
from qntl.qkd import _model_gain, run_bb84
from qntl.stats import Histogram, stream

from distcheck import chi_square_gof
from oracles import poisson_sample


def emit_many(mean_photons, n, seed, label="photon-test"):
    return emit_pulse(mean_photons, stream(seed, label), n).tolist()


def send(mean_photons, channel, rng, size):
    """``size`` pulses through ``channel``: their photon-number uniforms,
    then one uniform per photon, from ``rng``."""
    return transmit(emit_pulse(mean_photons, rng, size), channel, rng)


# ---------------------------------------------------------------- sources

def test_single_photon_source_always_emits_one():
    counts = emit_many(None, 500, 1)
    assert all(c == 1 for c in counts)


def test_zero_mean_source_emits_nothing():
    counts = emit_many(0.0, 500, 2)
    assert all(c == 0 for c in counts)


def test_weak_coherent_mean_at_five():
    counts = emit_many(5.0, 10**5, 42)
    assert abs(sum(counts) / len(counts) - 5.0) < 0.05


@pytest.mark.parametrize("mean_photons, photons", [(None, 1), (0.0, 0)])
def test_fixed_sources_leave_the_stream_alone(mean_photons, photons):
    rng, untouched = stream(6, "fixed-source"), stream(6, "fixed-source")
    assert np.array_equal(emit_pulse(mean_photons, rng, 300), np.full(300, photons))
    assert rng.bit_generator.state == untouched.bit_generator.state


@pytest.mark.parametrize("mu", [1e-6, 0.5, 5.0, 700.0])
def test_weak_coherent_count_is_the_scalar_inversion(mu):
    # emit_pulse reads what the scalar sampler reads from the same stream,
    # one rng.random() per count, and leaves the stream where it does.
    rng, ref_rng = stream(4, "emit-inversion"), stream(4, "emit-inversion")
    assert emit_pulse(mu, rng, 2000).tolist() == [poisson_sample(mu, ref_rng) for _ in range(2000)]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_source_validation():
    for mu in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            emit_pulse(mu, stream(0, "source-err"), 4)
        with pytest.raises(ValueError):
            run_bb84(10, stream(0, "source-err"), mean_photons=mu)


def test_intensity_labels():
    assert SIGNAL == "signal"
    assert decoy_label(2) == "decoy-2"
    with pytest.raises(ValueError):
        decoy_label(-1)


# ---------------------------------------------------------------- loss

def test_lossless_channel_preserves_pulse():
    photons = np.array([7, 0, 3])
    assert transmit(photons, LossChannel(1.0), stream(3, "lossless")).tolist() == [7, 0, 3]


def test_opaque_channel_absorbs_everything():
    photons = np.array([7, 0, 3])
    assert transmit(photons, LossChannel(0.0), stream(3, "opaque")).tolist() == [0, 0, 0]


def test_channel_validation():
    with pytest.raises(ValueError):
        LossChannel(1.5)
    with pytest.raises(ValueError):
        LossChannel(-0.1)


def test_poisson_thinning_closure():
    # Poisson(5) through a 50% channel must look exactly like Poisson(2.5)
    chan = LossChannel(0.5)
    out = send(5.0, chan, stream(42, "thinning"), 10**5)
    h = Histogram.from_samples(out, max_bin=12)
    p = chi_square_gof(h, lambda k: sp_poisson.pmf(k, 2.5))
    assert p > 0.01
    assert abs(out.mean() - 2.5) < 0.05


def test_loss_monotonicity():
    means = []
    for i, eta in enumerate([1.0, 0.75, 0.5, 0.25, 0.0]):
        rng = stream(11, f"loss-mono-{i}")
        means.append(send(4.0, LossChannel(eta), rng, 20000).mean())
    assert all(a > b for a, b in zip(means, means[1:]))


def reference_transmit(photons, channel, rng):
    """The per-photon loss kernel: one ``rng.random()`` per photon, pulse
    after pulse."""
    return [sum(rng.random() < channel.transmittance for _ in range(n)) for n in photons]


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_transmit_matches_array_reference(eta):
    # One array of all the chunk's photon uniforms holds the same draws as
    # one rng.random() per photon, so each pulse's survivors and the
    # generator state both match, zero-photon pulses and an all-empty chunk
    # (which draws nothing) included.
    channel = LossChannel(eta)
    for seed in range(20):
        rng, ref_rng = stream(seed, "transmit-ref"), stream(seed, "transmit-ref")
        for photons in ([0] * 5, [], [3, 0, 0, 7, 1, 0], list(range(8))):
            survivors = transmit(np.array(photons, np.intp), channel, rng)
            assert survivors.tolist() == reference_transmit(photons, channel, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_transmit_is_deterministic():
    def run():
        return transmit(np.full(100, 50), LossChannel(0.3), stream(5, "det-loss")).tolist()

    assert run() == run()


# ---------------------------------------------------------------- detection

def test_detect_corner_cases():
    uniforms = stream(0, "detect").random(100).tolist()
    ideal = Detector()
    # no photons, no dark counts: never clicks
    assert not any(detect(0, ideal, u) for u in uniforms)
    # unit efficiency: always clicks on any photon
    assert all(detect(3, ideal, u) for u in uniforms)
    # dark counts only
    always_dark = Detector(efficiency=0.0, dark_count_prob=1.0)
    assert all(detect(0, always_dark, u) for u in uniforms)


def test_detect_click_probability():
    # click prob for count 2, eff 0.4, dark 0.1: 1 - 0.9 * 0.6^2 = 0.676
    det = Detector(efficiency=0.4, dark_count_prob=0.1)
    uniforms = stream(21, "click-prob").random(10**5).tolist()
    clicks = sum(detect(2, det, u) for u in uniforms)
    expected = 1.0 - 0.9 * 0.6**2
    assert det.click_probability(2) == pytest.approx(expected, abs=1e-15)
    assert abs(clicks / 10**5 - expected) < 0.005


@pytest.mark.parametrize("mu", [0.0, 0.1, 0.5, 2.5, 5.0, 12.0, 20.0])
def test_click_model_matches_decoy_gain_model(mu):
    # Poisson(mu) thinned by eta arrives as Poisson(mu * eta) photons, so the
    # per-count click model averaged over that law must give the closed-form
    # honest gain the decoy analysis compares against.
    for eta in (0.0, 0.1, 0.5, 0.9, 1.0):
        lam = mu * eta
        n_max = 0
        while sp_poisson.sf(n_max, lam) >= 1e-16:
            n_max += 1
        pmf = sp_poisson.pmf(np.arange(n_max + 1), lam)
        for efficiency in (0.0, 0.3, 0.6, 1.0):
            for dark in (0.0, 1e-5, 0.01, 0.5, 1.0):
                det = Detector(efficiency=efficiency, dark_count_prob=dark)
                enumerated = float(pmf @ det.click_probability(np.arange(n_max + 1)))
                model = _model_gain(mu, LossChannel(eta), det)
                assert abs(enumerated - model) < 1e-12, (mu, eta, efficiency, dark)


def test_detector_validation():
    with pytest.raises(ValueError):
        Detector(efficiency=1.2)
    with pytest.raises(ValueError):
        Detector(dark_count_prob=-0.5)

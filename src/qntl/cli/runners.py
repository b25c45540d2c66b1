"""Experiment registry: one named entry per runnable scenario.

Each entry binds a parameter schema to a runner function.  Runners take the
resolved parameter mapping plus the seed and return ``(columns, rows,
summary)``; all randomness flows through a stream labeled with the
experiment name, so a fixed (seed, params) pair reproduces rows byte for
byte.  Rows are plain tuples, and rows and summaries hold builtin scalars
only, never numpy types, because both the CSV and JSON writers rely on
builtin formatting: runners convert arrays with ``tolist()`` where they read
them.

Importing the registry loads no physics or network layer beyond the
topology family names: each runner and token parser imports its layer in
its body, and calls through the module attribute
(``attacks.pns_experiment``), where a tracer can patch it.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from ..defaults import (
    CHSH_DETECTION_MARGIN, CHSH_TEST_FRACTION, DEFAULT_ABORT_THRESHOLD, DEFAULT_DISCLOSED_FRACTION,
)
from ..network.topology import TopologyKind
from ..stats import stream
from .config import (
    ConfigError, ParamSpec, as_float, as_int, choice, float_list, int_list, names,
)

if TYPE_CHECKING:
    from .. import attacks, network, qkd

__all__ = ["ExperimentDef", "EXPERIMENTS", "get_experiment"]

Columns = tuple[str, ...]
Rows = list[tuple]
Summary = dict[str, Any]
RunnerFn = Callable[[Mapping[str, Any], int], tuple[Columns, Rows, Summary]]


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    help: str
    specs: tuple[ParamSpec, ...]
    run: RunnerFn


def _key_digest(bits: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(bits, dtype=np.uint8).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Attack-token parsing shared by the pns and decoy scenarios
# ---------------------------------------------------------------------------

def _splitter_strategy(token: str) -> attacks.PnsStrategy:
    from .. import attacks

    if token == "no-eve":
        return attacks.PnsStrategy.no_eve()
    if token == "always-minus-one":
        return attacks.PnsStrategy.always_minus_one()
    if token == "block-singles":
        return attacks.PnsStrategy.block_singles()
    if token.startswith("random-"):
        try:
            q = float(token[len("random-"):])
        except ValueError:
            raise ConfigError(f"bad intercept probability in {token!r}") from None
        return attacks.PnsStrategy.random_intercept(q)
    raise ConfigError(
        f"unknown splitting strategy {token!r}; expected no-eve, random-<p>, "
        "always-minus-one, or block-singles"
    )


def _trojan_policy(token: str) -> attacks.TrojanPolicy:
    from .. import attacks

    if token == "no-shift":
        return attacks.TrojanPolicy.no_shift()
    if token == "random-shift":
        return attacks.TrojanPolicy.random_shift()
    if token == "fixed-half-pi":
        return attacks.TrojanPolicy.fixed_shift(math.pi / 2.0)
    if token.startswith("fixed-"):
        try:
            theta = float(token[len("fixed-"):])
        except ValueError:
            raise ConfigError(f"bad phase in {token!r}") from None
        return attacks.TrojanPolicy.fixed_shift(theta)
    raise ConfigError(
        f"unknown probing policy {token!r}; expected no-shift, fixed-<phase>, "
        "fixed-half-pi, or random-shift"
    )


def _label(checked: attacks.PnsStrategy | attacks.TrojanPolicy) -> str:
    """Duplicate key of a checked strategy or policy: its row label."""
    return checked.label()


def _splitter_token(raw: Any) -> str:
    token = str(raw).strip()
    _splitter_strategy(token)
    return token


# ---------------------------------------------------------------------------
# Photon-number splitting
# ---------------------------------------------------------------------------

_PNS_SPECS = (
    ParamSpec("mu", as_float, 5.0, "mean photons per weak coherent pulse"),
    ParamSpec("pulses", as_int, 100_000, "pulses per strategy"),
    ParamSpec(
        "strategies",
        names("splitting strategies", _splitter_strategy, _label),
        ["no-eve", "random-0.5", "always-minus-one"],
        "comma-separated splitting strategies to compare",
    ),
    ParamSpec("max_bin", as_int, 20, "last histogram bin (aggregates the tail)"),
)


def _run_pns(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import attacks

    strategies = [_splitter_strategy(t) for t in params["strategies"]]
    rng = stream(seed, "pns")
    result = attacks.pns_experiment(
        params["pulses"], params["mu"], strategies, rng, max_bin=params["max_bin"]
    )
    columns = ("series", "record", "bin", "value")
    baseline = result.baseline.counts.tolist()
    rows: Rows = [("baseline", "count", b, c) for b, c in enumerate(baseline)]
    for strategy in strategies:
        label = strategy.label()
        counts = result.histograms[label].counts.tolist()
        rows.extend((label, "count", b, c) for b, c in enumerate(counts))
        rows.extend((label, "zscore", b, z) for b, z in enumerate(result.zscores[label].tolist()))
    summary: Summary = {
        "mean_photons": params["mu"],
        "n_pulses": params["pulses"],
        "max_abs_z": {s.label(): result.max_abs_z(s.label()) for s in strategies},
    }
    return columns, rows, summary


# ---------------------------------------------------------------------------
# Trojan-horse probing gain
# ---------------------------------------------------------------------------

_TROJAN_SPECS = (
    ParamSpec("photons", as_int, 100_000, "probe photons per policy"),
    ParamSpec(
        "policies",
        names("probing policies", _trojan_policy, _label),
        ["no-shift", "fixed-half-pi", "random-shift"],
        "comma-separated phase-shift policies to compare",
    ),
)


def _run_trojan(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import attacks

    n = params["photons"]
    stride = max(n // 200, 1)
    checkpoints = list(range(stride, n + 1, stride))
    if n % stride != 0:
        checkpoints.append(n)
    columns = ("policy", "photon_index", "cumulative_gain")
    rows: Rows = []
    gain_per_photon: dict[str, float] = {}
    rng = stream(seed, "trojan")
    for token in params["policies"]:
        policy = _trojan_policy(token)
        label = policy.label()
        series = attacks.trojan_gain_experiment(checkpoints, policy, rng).tolist()
        rows.extend((label, k, gain) for k, gain in zip(checkpoints, series))
        gain_per_photon[label] = series[-1] / n
    summary: Summary = {"n_photons": n, "gain_per_photon": gain_per_photon}
    return columns, rows, summary


# ---------------------------------------------------------------------------
# Prepare-and-measure key exchange
# ---------------------------------------------------------------------------

# Post-processing parameters that both key exchanges share.
_KEY_SPECS = (
    ParamSpec("disclosed_fraction", as_float, DEFAULT_DISCLOSED_FRACTION,
              "sifted fraction disclosed for error estimation"),
    ParamSpec("abort_threshold", as_float, DEFAULT_ABORT_THRESHOLD,
              "error rate above which the session aborts"),
)

_BB84_SPECS = (
    ParamSpec("rounds", as_int, 2000, "qubits sent"),
    ParamSpec(
        "attack",
        choice("attack", ("none", "intercept-resend")),
        "none",
        "in-flight attack on the quantum channel",
    ),
    ParamSpec(
        "source",
        choice("source", ("single-photon", "weak-coherent")),
        "single-photon",
        "photon source model",
    ),
    ParamSpec("mu", as_float, 0.5, "mean photons per pulse (weak-coherent only)"),
    ParamSpec("transmittance", as_float, 1.0, "channel transmittance"),
    ParamSpec("efficiency", as_float, 1.0, "detector efficiency"),
    ParamSpec("dark", as_float, 0.0, "detector dark-count probability"),
    *_KEY_SPECS,
)


_SESSION_COLUMNS = (
    "rounds", "sifted", "disclosed", "qber", "leaked", "final_bits",
    "aborted", "eavesdrop_detected", "key_sha256",
)


def _session_row(session: qkd.QkdSession) -> tuple:
    return (
        session.n_rounds,
        session.sifted_count,
        session.disclosed_count,
        session.qber_estimate,
        session.leaked_bits,
        session.final_key_bits,
        session.aborted,
        session.eavesdrop_detected,
        _key_digest(session.final_key),
    )


def _session_summary(session: qkd.QkdSession) -> Summary:
    return {
        "aborted": session.aborted,
        "abort_reason": session.abort_reason,
        "qber": session.qber_estimate,
        "final_bits": session.final_key_bits,
        "eavesdrop_detected": session.eavesdrop_detected,
    }


def _run_bb84(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import attacks, photonics, qkd

    rng = stream(seed, "bb84")
    mean_photons = params["mu"] if params["source"] == "weak-coherent" else None
    channel = None
    if params["transmittance"] != 1.0:
        channel = photonics.LossChannel(params["transmittance"])
    detector = photonics.Detector(
        efficiency=params["efficiency"], dark_count_prob=params["dark"]
    )
    eavesdropper = None
    if params["attack"] == "intercept-resend":
        eavesdropper = attacks.intercept_resend()
    session = qkd.run_bb84(
        params["rounds"],
        rng,
        mean_photons=mean_photons,
        channel=channel,
        detector=detector,
        eavesdropper=eavesdropper,
        disclosed_fraction=params["disclosed_fraction"],
        abort_threshold=params["abort_threshold"],
    )
    return _SESSION_COLUMNS, [_session_row(session)], _session_summary(session)


# ---------------------------------------------------------------------------
# Entanglement-based key exchange
# ---------------------------------------------------------------------------

_E91_SPECS = (
    ParamSpec("rounds", as_int, 2000, "entangled pairs consumed"),
    ParamSpec(
        "attack",
        choice("attack", ("none", "probe")),
        "none",
        "pair-source attack (probe entangles an ancilla with every pair)",
    ),
    ParamSpec("chsh_fraction", as_float, CHSH_TEST_FRACTION,
              "fraction of rounds spent on the correlation test"),
    ParamSpec("detection_margin", as_float, CHSH_DETECTION_MARGIN,
              "required margin above the classical bound"),
    *_KEY_SPECS,
)


def _run_e91(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import attacks, qkd

    rng = stream(seed, "e91")
    hook = attacks.probe_hook() if params["attack"] == "probe" else None
    session = qkd.run_e91(
        params["rounds"],
        rng,
        pair_hook=hook,
        chsh_fraction=params["chsh_fraction"],
        detection_margin=params["detection_margin"],
        disclosed_fraction=params["disclosed_fraction"],
        abort_threshold=params["abort_threshold"],
    )
    chsh = session.chsh_estimate if session.chsh_estimate is not None else float("nan")
    # bb84's columns and row, with the correlation test after the rounds.
    columns = ("rounds", "test_rounds", "chsh", *_SESSION_COLUMNS[1:])
    row = (session.n_rounds, session.chsh_rounds, chsh, *_session_row(session)[1:])
    summary = _session_summary(session)
    summary["chsh"] = chsh
    return columns, [row], summary


# ---------------------------------------------------------------------------
# Trusted-relay key transport
# ---------------------------------------------------------------------------

_RELAY_SPECS = (
    ParamSpec("key_bits", as_int, 128, "end-to-end key length"),
    ParamSpec("relays", as_int, 4, "intermediate relay count"),
)


def _run_relay(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import qkd

    rng = stream(seed, "relay")
    key = rng.integers(0, 2, size=params["key_bits"], dtype=np.int8)
    result = qkd.run_relay_chain(key, params["relays"], rng)
    columns = ("relay_index", "cleartext_matches_key", "wire_differs_from_key")
    matches = (result.cleartexts == key).all(axis=1).tolist()
    differs = (result.wire[:-1] != key).any(axis=1).tolist()
    rows: Rows = list(zip(range(1, result.n_relays + 1), matches, differs))
    summary: Summary = {
        "n_relays": result.n_relays,
        "recovered_ok": result.recovered_ok,
        "key_sha256": _key_digest(key),
    }
    return columns, rows, summary


# ---------------------------------------------------------------------------
# Decoy-intensity consistency check
# ---------------------------------------------------------------------------

_DECOY_SPECS = (
    ParamSpec("signal_mu", as_float, 0.5, "signal intensity"),
    ParamSpec("decoy_mus", float_list, [0.1, 0.0], "decoy intensities; 0 is the vacuum class"),
    ParamSpec("pulses", as_int, 100_000, "pulses per intensity class"),
    ParamSpec("transmittance", as_float, 0.5, "channel transmittance"),
    ParamSpec("efficiency", as_float, 0.9, "detector efficiency"),
    ParamSpec("dark", as_float, 1e-5, "detector dark-count probability"),
    ParamSpec("attack", _splitter_token, "no-eve", "splitting strategy (the pns tokens)"),
    ParamSpec("threshold", as_float, 0.1, "relative gain deviation that raises the alarm"),
)


def _run_decoy(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import photonics, qkd

    rng = stream(seed, "decoy")
    pulses = params["pulses"]
    intensities = [qkd.DecoyIntensity(photonics.SIGNAL, params["signal_mu"], pulses)]
    for i, mu in enumerate(params["decoy_mus"]):
        intensities.append(qkd.DecoyIntensity(photonics.decoy_label(i), mu, pulses))
    channel = photonics.LossChannel(params["transmittance"])
    detector = photonics.Detector(
        efficiency=params["efficiency"], dark_count_prob=params["dark"]
    )
    detected = qkd.simulate_decoy_transmissions(
        intensities, channel, detector, rng, attacker=_splitter_strategy(params["attack"])
    )
    analysis = qkd.decoy_state_analysis(
        intensities, detected, channel, detector, deviation_threshold=params["threshold"]
    )
    columns = (
        "label", "mean_photons", "sent", "detected", "gain", "model_gain",
        "relative_deviation",
    )
    rows = [
        (a.label, a.mean_photons, a.sent, a.detected, a.gain, a.model_gain, a.relative_deviation)
        for a in analysis.assessments
    ]
    summary: Summary = {
        "eavesdrop_detected": analysis.eavesdrop_detected,
        "max_relative_deviation": analysis.max_relative_deviation,
        "vacuum_yield": analysis.vacuum_yield,
        "single_photon_yield_lower_bound": analysis.single_photon_yield_lower_bound,
    }
    return columns, rows, summary


# ---------------------------------------------------------------------------
# Repetition-code error correction
# ---------------------------------------------------------------------------

_QEC_MODES = ("iid", "burst-2")


_QEC_SPECS = (
    ParamSpec("flip_probs", float_list, [0.05, 0.1, 0.2, 0.3], "physical flip probabilities"),
    ParamSpec("blocks", as_int, 20_000, "code blocks per (mode, probability) cell"),
    ParamSpec(
        "modes",
        names("noise modes", choice("noise mode", _QEC_MODES)),
        list(_QEC_MODES),
        "noise modes: independent flips, or correlated adjacent-pair bursts",
    ),
)


def _run_qec(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import attacks

    rng = stream(seed, "qec")
    columns = (
        "mode", "flip_probability", "blocks", "logical_errors", "logical_rate",
        "iid_analytic_rate",
    )
    rows: Rows = []
    blocks = params["blocks"]
    for mode in params["modes"]:
        for p in params["flip_probs"]:
            errors = attacks.qec_bitflip_experiment(blocks, p, mode=mode, rng=rng)
            rows.append(
                (mode, p, blocks, errors, errors / blocks, attacks.iid_logical_error_rate(p))
            )
    summary: Summary = {
        "majority_crossover_probability": 0.5,
        "correctable_qubit_fraction": 1.0 / 3.0,
    }
    return columns, rows, summary


# ---------------------------------------------------------------------------
# Interlocked split-message exchange
# ---------------------------------------------------------------------------

_INTERLOCK_SPECS = (
    ParamSpec("message_bits", int_list, [2, 8, 16], "message lengths to test (even)"),
    ParamSpec("trials", as_int, 10_000, "exchanges per message length"),
)


def _run_interlock(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import attacks

    rng = stream(seed, "interlock")
    trials = params["trials"]
    columns = ("message_bits", "trials", "detected", "detection_rate", "analytic_rate")
    rows: Rows = []
    for k in params["message_bits"]:
        detected = attacks.interlock_exchange(k, trials, rng)
        rows.append((k, trials, detected, detected / trials, attacks.interlock_detection_rate(k)))
    return columns, rows, {}


# ---------------------------------------------------------------------------
# Untrusted-node path decay
# ---------------------------------------------------------------------------

_ALL_KINDS = [k.value for k in TopologyKind]


_KIND_NAMES = names("topology kinds", choice("topology kind", _ALL_KINDS))


def _parse_kinds(raw: Any) -> list[str]:
    if raw == ["all"] or str(raw).strip() == "all":
        return list(_ALL_KINDS)
    return _KIND_NAMES(raw)


_DECAY_SPECS = (
    ParamSpec("kinds", _parse_kinds, list(_ALL_KINDS), "topology families, or 'all'"),
    ParamSpec(
        "fractions",
        float_list,
        [round(0.1 * i, 10) for i in range(9)],
        "compromised-node fractions (range syntax start:stop:step)",
    ),
    ParamSpec("trials", as_int, 20, "independent topology draws per family"),
    ParamSpec("pairs", as_int, 20, "endpoint pairs per trial"),
)


def _run_decay(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import network

    rng = stream(seed, "topology-decay")
    table = network.untrusted_node_experiment(
        params["kinds"], params["fractions"], params["trials"], params["pairs"], rng
    )
    columns = ("kind", "fraction", "distance", "mean_count", "std_count", "samples")
    rows = [
        (r.kind, r.fraction, r.distance, r.mean_count, r.std_count, r.samples)
        for r in table.rows
    ]
    base = params["fractions"][0]
    summary: Summary = {
        "kinds": list(params["kinds"]),
        "baseline_mean": {
            kind: table.aggregate(kind, base).mean_count for kind in params["kinds"]
        },
    }
    return columns, rows, summary


# ---------------------------------------------------------------------------
# Route diversion via falsified quality advertisements
# ---------------------------------------------------------------------------

def _as_float_pair(raw: Any) -> list[float]:
    values = float_list(raw)
    if len(values) != 2 or not 0.0 <= values[0] <= values[1] < math.inf:
        raise ConfigError(f"expected 'lo,hi' with 0 <= lo <= hi < inf, got {raw!r}")
    return values


_DIVERSION_SPECS = (
    ParamSpec("kind", choice("topology kind", _ALL_KINDS), "grid", "topology family"),
    ParamSpec("pairs", as_int, 200, "endpoint pairs routed"),
    ParamSpec("hijacker", as_int, -1, "advertising node id, or -1 for the middle node"),
    ParamSpec("error_rate_range", _as_float_pair, [0.0, 0.05], "per-node error-rate draw range"),
    ParamSpec(
        "response_time_range",
        _as_float_pair,
        [10.0, 50.0],
        "per-node response-time draw range (ms)",
    ),
    ParamSpec("response_time_scale", as_float, 100.0, "ms of response time worth one error-rate unit"),
)


def _run_diversion(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import network

    rng = stream(seed, "diversion")
    topo_seed = int(rng.integers(0, 2**63))
    topology = network.generate_topology(
        params["kind"],
        topo_seed,
        error_rate_range=params["error_rate_range"],
        response_time_range=params["response_time_range"],
    )
    nodes = sorted(topology.nodes)
    hijacker = params["hijacker"]
    if hijacker == -1:
        hijacker = nodes[len(nodes) // 2]
    result = network.diversion_experiment(
        topology,
        hijacker,
        params["pairs"],
        rng,
        response_time_scale=params["response_time_scale"],
    )
    columns = (
        "source", "target", "honest_hops", "diverted_hops",
        "honest_via_hijacker", "diverted_via_hijacker",
    )
    rows = [
        (p.source, p.target, len(p.honest_path) - 1, len(p.diverted_path) - 1,
         p.honest_via_hijacker, p.diverted_via_hijacker)
        for p in result.pairs
    ]
    summary: Summary = {
        "hijacker": hijacker,
        "baseline_fraction": result.baseline_fraction,
        "diverted_fraction": result.diverted_fraction,
        "mean_hop_stretch": result.mean_hop_stretch,
    }
    return columns, rows, summary


# ---------------------------------------------------------------------------
# Connection-flood denial of service
# ---------------------------------------------------------------------------

_DOS_SPECS = (
    ParamSpec("duration", as_float, 30_000.0, "simulated span in ms"),
    ParamSpec("legit_rate", as_float, 5.0, "aggregate legitimate request rate per second"),
    ParamSpec("attack_rate", as_float, 50.0, "aggregate attack request rate per second"),
    ParamSpec("servers", as_int, 10, "concurrent handshake slots"),
    ParamSpec(
        "mitigation",
        choice("mitigation", ("none", "rate-limit", "embryonic-cap", "suspicion-scheduler")),
        "none",
        "admission policy at the receiver",
    ),
    ParamSpec("rate", as_float, 0.5, "rate-limit: tokens per second per source"),
    ParamSpec("burst", as_int, 2, "rate-limit: bucket depth per source"),
    ParamSpec("cap", as_int, 8, "embryonic-cap: max half-open handshakes per source"),
    ParamSpec("legit_sources", as_int, 10, "distinct legitimate sources"),
    ParamSpec("attack_sources", as_int, 1, "distinct attack sources"),
    ParamSpec("service", as_float, 500.0, "mean handshake service time in ms"),
    ParamSpec("embryonic_timeout", as_float, 10_000.0, "half-open hold time before reclaim (ms)"),
    ParamSpec("patience", as_float, 3_000.0, "legitimate clients abandon after this wait (ms)"),
)


def _build_mitigation(params: Mapping[str, Any]) -> network.Mitigation:
    from .. import network

    kind = params["mitigation"]
    if kind == "none":
        return network.Mitigation.none()
    if kind == "rate-limit":
        return network.Mitigation.rate_limit(params["rate"], params["burst"])
    if kind == "embryonic-cap":
        return network.Mitigation.embryonic_cap(params["cap"])
    return network.Mitigation.suspicion_scheduler()


def _run_dos(params: Mapping[str, Any], seed: int) -> tuple[Columns, Rows, Summary]:
    from .. import network

    rng = stream(seed, "dos")
    result = network.dos_simulate(
        params["duration"],
        params["legit_rate"],
        params["attack_rate"],
        params["servers"],
        _build_mitigation(params),
        rng,
        n_legit_sources=params["legit_sources"],
        n_attack_sources=params["attack_sources"],
        mean_service_ms=params["service"],
        embryonic_timeout_ms=params["embryonic_timeout"],
        patience_ms=params["patience"],
    )
    columns = (
        "mitigation", "duration_ms", "servers",
        "legit_arrivals", "attack_arrivals", "legit_served", "attack_served",
        "legit_dropped", "attack_dropped", "legit_blocked", "attack_blocked",
        "legit_still_queued", "attack_still_queued", "mean_legit_wait_ms",
        "legit_served_fraction", "attack_served_fraction", "conservation_ok",
    )
    row = (
        result.mitigation, result.duration_ms, result.n_servers,
        result.legit_arrivals, result.attack_arrivals, result.legit_served,
        result.attack_served, result.legit_dropped, result.attack_dropped,
        result.legit_blocked, result.attack_blocked, result.legit_still_queued,
        result.attack_still_queued, result.mean_legit_wait_ms,
        result.legit_served_fraction, result.attack_served_fraction,
        result.conservation_ok(),
    )
    summary: Summary = {
        "mitigation": result.mitigation,
        "legit_served_fraction": result.legit_served_fraction,
        "attack_served_fraction": result.attack_served_fraction,
        "mean_legit_wait_ms": result.mean_legit_wait_ms,
        "conservation_ok": result.conservation_ok(),
    }
    return columns, [row], summary


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, ExperimentDef] = {
    e.name: e
    for e in (
        ExperimentDef(
            "pns",
            "photon-number distributions seen by the receiver under splitting attacks",
            _PNS_SPECS,
            _run_pns,
        ),
        ExperimentDef(
            "trojan",
            "cumulative information gain of a back-reflection probe",
            _TROJAN_SPECS,
            _run_trojan,
        ),
        ExperimentDef(
            "bb84",
            "prepare-and-measure key exchange with optional in-flight attack",
            _BB84_SPECS,
            _run_bb84,
        ),
        ExperimentDef(
            "e91",
            "entanglement-based key exchange with correlation verification",
            _E91_SPECS,
            _run_e91,
        ),
        ExperimentDef(
            "relay",
            "key transport across trusted relays, logging every cleartext exposure",
            _RELAY_SPECS,
            _run_relay,
        ),
        ExperimentDef(
            "decoy",
            "multi-intensity gain consistency check against splitting attacks",
            _DECOY_SPECS,
            _run_decoy,
        ),
        ExperimentDef(
            "qec",
            "three-qubit repetition code under independent and burst noise",
            _QEC_SPECS,
            _run_qec,
        ),
        ExperimentDef(
            "interlock",
            "split-message exchange detection rate against a relay attacker",
            _INTERLOCK_SPECS,
            _run_interlock,
        ),
        ExperimentDef(
            "topology-decay",
            "viable-path decay as nodes become untrusted, across topology families",
            _DECAY_SPECS,
            _run_decay,
        ),
        ExperimentDef(
            "diversion",
            "traffic attraction from a falsified zero-cost advertisement",
            _DIVERSION_SPECS,
            _run_diversion,
        ),
        ExperimentDef(
            "dos",
            "connection-flood handshake exhaustion under admission policies",
            _DOS_SPECS,
            _run_dos,
        ),
    )
}


def get_experiment(name: str) -> ExperimentDef:
    exp = EXPERIMENTS.get(name)
    if exp is None:
        listed = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment {name!r}; expected one of {listed}")
    return exp

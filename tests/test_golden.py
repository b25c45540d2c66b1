"""Golden row pins: the sha256 of every experiment's CSV rows at small configs.

A refactor that keeps behaviour keeps every pin.  A change that alters rows
on purpose regenerates the file with ``python tests/test_golden.py >
tests/data/rows.sha256`` (from the repo root, with ``src`` on the path) and
says in CHANGES.md which pins moved and why.  The digests hold for one numpy
version (see ``qntl.stats``).
"""
import hashlib
from pathlib import Path

import pytest

from qntl.cli.config import resolve_config
from qntl.cli.report import rows_to_csv
from qntl.cli.runners import EXPERIMENTS, get_experiment

PINS = Path(__file__).parent / "data" / "rows.sha256"

EXPERIMENT_PARAMS: dict[str, dict[str, str]] = {
    "pns": {"pulses": "10000"},
    "trojan": {"photons": "5000"},
    "bb84": {"rounds": "2000"},
    "e91": {"rounds": "1000"},
    "relay": {},
    "decoy": {"pulses": "2000"},
    "qec": {"flip_probs": "0.1", "blocks": "2000"},
    "interlock": {"message_bits": "2,8", "trials": "2000"},
    "topology-decay": {"fractions": "0,0.3", "trials": "2", "pairs": "4"},
    "diversion": {"pairs": "50"},
    "dos": {"duration": "5000"},
}
EXPERIMENT_SEED = 7

# Every family at the default fractions 0-0.8, so that many pairs fall to
# zero paths part-way and stay there for the later fractions.
DECAY_DEFAULT_FRACTIONS = {"trials": "3", "pairs": "10"}

# Legitimate load alone (20/s x 500 ms) exceeds four servers, so every
# mitigation keeps a backlog of many sources, and a cap of 2 binds.  With
# several sources per class, equal trailing-window counts are common, so
# the scheduler's tie-break by arrival order decides many picks.
DOS_BASE = {"duration": "5000", "legit_rate": "20", "servers": "4", "cap": "2"}
DOS_MIXES = {
    "1-attack": {"attack_sources": "1"},
    "10-attack-1-legit": {"attack_sources": "10", "legit_sources": "1"},
    "5-attack-5-legit": {"attack_sources": "5", "legit_sources": "5"},
}
DOS_MITIGATIONS = ("none", "rate-limit", "embryonic-cap", "suspicion-scheduler")
DOS_SEEDS = range(5)

# Protocol paths the default-config pins miss: the in-flight and pair-source
# attack hooks, the weak-coherent source with a lossy channel, a detector
# below unit efficiency with dark counts (behind either source), and a BB84
# session longer than one chunk of the photon gate.  Under attack half the
# sifted key is disclosed, so the pinned error rate and CHSH estimate depend
# on most of the receiver's measured bits.
PROTOCOL_CASES = {
    "bb84/intercept-resend": (
        "bb84",
        {"rounds": "2000", "attack": "intercept-resend", "disclosed_fraction": "0.5",
         "abort_threshold": "1"},
    ),
    "bb84/weak-coherent": (
        "bb84",
        {"rounds": "4000", "source": "weak-coherent", "mu": "0.5", "transmittance": "0.1"},
    ),
    "bb84/lossy-detector": (
        "bb84",
        {"rounds": "4000", "source": "weak-coherent", "mu": "0.5", "transmittance": "0.5",
         "efficiency": "0.6", "dark": "0.01"},
    ),
    "bb84/single-photon-lossy": (
        "bb84",
        {"rounds": "4000", "transmittance": "0.5", "efficiency": "0.6", "dark": "0.01"},
    ),
    "bb84/multi-chunk": (
        "bb84",
        {"rounds": "20000", "source": "weak-coherent", "mu": "0.5", "transmittance": "0.1"},
    ),
    "e91/probe": ("e91", {"rounds": "1000", "attack": "probe", "disclosed_fraction": "0.5"}),
}

# Photon-batch paths the default-config pins miss: the splitting attacks in
# the decoy test (random intercept also away from transmittance 0.5, where its
# thinned mean equals the honest channel's and the two digests coincide), a
# second decoy class, a Poisson mean whose CDF spans many steps (max_bin 60
# keeps its whole tail in the rows), pns runs that span several of
# pns_experiment's chunks at a high and a low mean (every strategy kind, and
# pulse counts that are not a multiple of the chunk size), fixed Trojan phases
# including zero, and both noise modes at a low and a high flip rate.
ARRAY_CASES = {
    "decoy/block-singles": ("decoy", {"pulses": "2000", "attack": "block-singles"}),
    "decoy/random-0.5": ("decoy", {"pulses": "2000", "attack": "random-0.5"}),
    "decoy/random-0.5-eta-0.8": (
        "decoy", {"pulses": "2000", "attack": "random-0.5", "transmittance": "0.8"},
    ),
    "decoy/two-decoys": ("decoy", {"pulses": "2000", "decoy_mus": "0.1,0.05,0"}),
    "pns/mu-20": ("pns", {"pulses": "10000", "mu": "20", "max_bin": "60"}),
    "pns/multi-chunk": (
        "pns",
        {"pulses": "100003", "strategies": "no-eve,random-0.25,always-minus-one,block-singles"},
    ),
    "pns/low-mu-multi-chunk": ("pns", {"pulses": "70001", "mu": "0.1"}),
    "trojan/fixed-1-fixed-0": ("trojan", {"photons": "5000", "policies": "fixed-1,fixed-0"}),
    "qec/p0.05-p0.3": ("qec", {"flip_probs": "0.05,0.3", "blocks": "2000"}),
}


# Network paths the default-config pins miss: trust-weighted routing on a
# random family, whose hubs make many equal-hop detours compete on weight.
NETWORK_CASES = {
    "diversion/barabasi-albert": ("diversion", {"pairs": "50", "kind": "barabasi-albert"}),
}


def _cases():
    for name, params in EXPERIMENT_PARAMS.items():
        yield name, name, params, EXPERIMENT_SEED
    for label, (name, params) in {**PROTOCOL_CASES, **ARRAY_CASES, **NETWORK_CASES}.items():
        yield label, name, params, EXPERIMENT_SEED
    yield (
        "topology-decay/default-fractions", "topology-decay",
        DECAY_DEFAULT_FRACTIONS, EXPERIMENT_SEED,
    )
    for mitigation in DOS_MITIGATIONS:
        for mix, extra in DOS_MIXES.items():
            for seed in DOS_SEEDS:
                params = {**DOS_BASE, **extra, "mitigation": mitigation}
                yield f"dos/{mitigation}/{mix}/seed{seed}", "dos", params, seed


def row_digests() -> dict[str, str]:
    digests = {}
    for label, name, params, seed in _cases():
        exp = get_experiment(name)
        config = resolve_config(name, exp.specs, params, None, seed, None, "csv", None)
        columns, rows, _ = exp.run(config.params, config.seed)
        csv = rows_to_csv(columns, rows)
        digests[label] = hashlib.sha256(csv.encode("utf-8")).hexdigest()
    return digests


def read_pins() -> dict[str, str]:
    pins = {}
    for line in PINS.read_text().splitlines():
        digest, label = line.split()
        pins[label] = digest
    return pins


def test_every_experiment_is_pinned():
    assert set(EXPERIMENT_PARAMS) == set(EXPERIMENTS)


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(EXPERIMENT_PARAMS))
def test_rows_and_summaries_hold_only_builtins(name):
    # The CSV and JSON writers format builtin scalars only; a numpy scalar
    # would pass json.dumps as a float subclass or fail it as an integer.
    exp = get_experiment(name)
    params = EXPERIMENT_PARAMS[name]
    config = resolve_config(name, exp.specs, params, None, EXPERIMENT_SEED, None, "csv", None)
    _, rows, summary = exp.run(config.params, config.seed)
    cells = [cell for row in rows for cell in row]
    assert all(type(row) is tuple for row in rows)
    for value in cells + list(_leaves(summary)):
        assert value is None or type(value) in (int, float, bool, str), (name, value)


def test_rows_match_golden_pins():
    pins = read_pins()
    digests = row_digests()
    assert set(digests) == set(pins)
    moved = sorted(label for label in pins if digests[label] != pins[label])
    assert not moved, f"rows changed for {moved}"


if __name__ == "__main__":
    for label, digest in row_digests().items():
        print(f"{digest}  {label}")

"""The benchmark workloads: fixed task lists, work units and output checks.

A task is one ``qntl run`` invocation: an experiment name plus a params block
in the same JSON form a scenario file holds.  Its seed is derived from the
workload seed and the task name, so one ``--seed`` fixes every input.

Every check is a physics oracle (an exact value, a closed form, or a
monotonicity that follows from the model) and never a pinned row, so a change
that consumes the random stream differently still passes.  Statistical
tolerances are five standard deviations of the sampling spread or wider.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

Rows = Sequence[tuple]
Summary = Mapping[str, Any]
# (columns, rows, summary) -> list of failed-check messages
Check = Callable[[Sequence[str], Rows, Summary], list[str]]
# (columns, rows, summary) -> work units the task completed
Units = Callable[[Sequence[str], Rows, Summary], int]

SIGMAS = 5.0


@dataclass(frozen=True)
class Task:
    name: str
    experiment: str
    params: Mapping[str, Any]
    units: Units
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    tasks: tuple[Task, ...]


def task_seed(workload_seed: int, workload: str, task: str) -> int:
    """Seed of one task: a hash of the workload seed and both names."""
    digest = hashlib.sha256(f"{workload_seed}/{workload}/{task}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _col(columns: Sequence[str], row: tuple, name: str) -> Any:
    return row[list(columns).index(name)]


def _within(label: str, measured: float, expected: float, sigma: float) -> list[str]:
    if abs(measured - expected) <= SIGMAS * sigma:
        return []
    return [f"{label}: {measured!r} is not within {SIGMAS:g} sigma ({sigma:.3g}) of {expected!r}"]


def _expect(label: str, ok: bool) -> list[str]:
    return [] if ok else [label]


def _binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else math.inf


# ---------------------------------------------------------------------------
# physics: protocol sessions
# ---------------------------------------------------------------------------

def _session_rounds(columns, rows, summary) -> int:
    return int(_col(columns, rows[0], "rounds"))


def _bb84_honest(columns, rows, summary) -> list[str]:
    return (
        _expect(f"honest bb84 qber {summary['qber']!r} is not exactly 0", summary["qber"] == 0.0)
        + _expect("honest bb84 session aborted", not summary["aborted"])
    )


def _bb84_intercept(columns, rows, summary) -> list[str]:
    disclosed = int(_col(columns, rows[0], "disclosed"))
    return _within(
        "intercept-resend qber", summary["qber"], 0.25, _binomial_sigma(0.25, disclosed)
    ) + _expect("intercept-resend session did not abort", summary["aborted"])


def _bb84_lossy(mu: float, transmittance: float) -> Check:
    # One photon surviving is enough for a unit-efficiency detector, and only
    # same-basis rounds are sifted.
    p_sifted = 0.5 * (1.0 - math.exp(-mu * transmittance))

    def check(columns, rows, summary) -> list[str]:
        rounds = int(_col(columns, rows[0], "rounds"))
        sifted = int(_col(columns, rows[0], "sifted"))
        return (
            _bb84_honest(columns, rows, summary)
            + _within("lossy bb84 sifted fraction", sifted / rounds, p_sifted,
                      _binomial_sigma(p_sifted, rounds))
        )

    return check


def _e91_honest(columns, rows, summary) -> list[str]:
    return (
        _expect(f"honest e91 chsh {summary['chsh']!r} is not above 2.1", summary["chsh"] > 2.1)
        + _expect(f"honest e91 qber {summary['qber']!r} is not exactly 0", summary["qber"] == 0.0)
    )


def _e91_probe(columns, rows, summary) -> list[str]:
    return _expect("probe on e91 pairs was not flagged", summary["eavesdrop_detected"])


def _interlock_units(columns, rows, summary) -> int:
    return sum(int(_col(columns, row, "trials")) for row in rows)


def _interlock(columns, rows, summary) -> list[str]:
    failures: list[str] = []
    for row in rows:
        k = int(_col(columns, row, "message_bits"))
        trials = int(_col(columns, row, "trials"))
        expected = 1.0 - 2.0 ** (-k / 2)
        failures += _within(f"interlock k={k} detection rate",
                            _col(columns, row, "detection_rate"), expected,
                            _binomial_sigma(expected, trials))
    return failures


# Per-round Python loops through quantum, photonics, the attack hooks and qkd.
PROTOCOL_TASKS = (
    Task("bb84-honest-1k", "bb84", {"rounds": 1000}, _session_rounds, _bb84_honest),
    Task("bb84-honest-8k", "bb84", {"rounds": 8000}, _session_rounds, _bb84_honest),
    # Half the sifted key is disclosed so the abort is certain at 7 sigma.
    Task("bb84-intercept-2k", "bb84",
         {"rounds": 2000, "attack": "intercept-resend", "disclosed_fraction": 0.5},
         _session_rounds, _bb84_intercept),
    # About 5% of pulses click, so few rounds reach the qubit path.
    Task("bb84-weak-coherent-10k", "bb84",
         {"rounds": 10000, "source": "weak-coherent", "mu": 0.5, "transmittance": 0.1},
         _session_rounds, _bb84_lossy(0.5, 0.1)),
    Task("e91-honest-3k", "e91", {"rounds": 3000}, _session_rounds, _e91_honest),
    Task("e91-probe-1500", "e91", {"rounds": 1500, "attack": "probe"},
         _session_rounds, _e91_probe),
    Task("interlock-2k", "interlock", {"message_bits": [2, 8, 16], "trials": 2000},
         _interlock_units, _interlock),
)


# ---------------------------------------------------------------------------
# physics: photon batches
# ---------------------------------------------------------------------------

PULSES = 1_000_000
BLOCKS = 200_000


def _pns_units(columns, rows, summary) -> int:
    # The baseline and every strategy each emit the full pulse count.
    series = {_col(columns, row, "series") for row in rows}
    return int(summary["n_pulses"]) * len(series)


def _pns(mu: float) -> Check:
    p_empty = math.exp(-mu)

    def check(columns, rows, summary) -> list[str]:
        n = int(summary["n_pulses"])
        empty = next(
            _col(columns, row, "value") for row in rows
            if _col(columns, row, "series") == "baseline" and _col(columns, row, "bin") == 0
        )
        return _within("pns baseline vacuum fraction", empty / n, p_empty,
                       _binomial_sigma(p_empty, n))

    return check


def _decoy_units(columns, rows, summary) -> int:
    return sum(int(_col(columns, row, "sent")) for row in rows)


def _decoy(flagged: bool) -> Check:
    def check(columns, rows, summary) -> list[str]:
        verdict = summary["eavesdrop_detected"]
        return _expect(f"decoy alarm is {verdict}, expected {flagged}", verdict == flagged)

    return check


def _trojan_units(columns, rows, summary) -> int:
    return int(summary["n_photons"]) * len(summary["gain_per_photon"])


def _trojan(columns, rows, summary) -> list[str]:
    # Per-photon gains lie in [0.5, 1], so their spread is at most 0.25.
    sigma = 0.25 / math.sqrt(int(summary["n_photons"]))
    expected = {"no-shift": 0.75, "random-shift": 0.625, f"fixed-{math.pi / 2:g}": 0.625}
    failures: list[str] = []
    for label, gain in summary["gain_per_photon"].items():
        if label not in expected:
            failures.append(f"trojan policy {label} has no oracle")
            continue
        failures += _within(f"trojan {label} gain per photon", gain, expected[label], sigma)
    return failures


def _qec_units(columns, rows, summary) -> int:
    return sum(int(_col(columns, row, "blocks")) for row in rows)


def _qec(columns, rows, summary) -> list[str]:
    failures: list[str] = []
    for row in rows:
        mode = _col(columns, row, "mode")
        p = float(_col(columns, row, "flip_probability"))
        expected = 3 * p * p - 2 * p**3 if mode == "iid" else p
        failures += _within(f"qec {mode} p={p} logical rate",
                            _col(columns, row, "logical_rate"), expected,
                            _binomial_sigma(expected, int(_col(columns, row, "blocks"))))
    return failures


# The same layers through their array paths, with almost no per-round loop.
PHOTON_TASKS = (
    Task("pns-1m", "pns", {"mu": 5.0, "pulses": PULSES}, _pns_units, _pns(5.0)),
    Task("decoy-honest-1m", "decoy", {"pulses": PULSES}, _decoy_units, _decoy(False)),
    Task("decoy-block-singles-1m", "decoy", {"pulses": PULSES, "attack": "block-singles"},
         _decoy_units, _decoy(True)),
    # fixed-half-pi only: other fixed phases report a known-wrong slope.
    Task("trojan-1m", "trojan",
         {"photons": PULSES, "policies": ["no-shift", "fixed-half-pi", "random-shift"]},
         _trojan_units, _trojan),
    Task("qec-200k", "qec", {"blocks": BLOCKS}, _qec_units, _qec),
)


# ---------------------------------------------------------------------------
# network: topology decay and diversion
# ---------------------------------------------------------------------------

def decay_evaluations(columns, rows, summary) -> int:
    """(pair, fraction) evaluations: the sample counts of the aggregate rows."""
    return sum(int(_col(columns, row, "samples")) for row in rows
               if _col(columns, row, "distance") == -1)


def _decay(columns, rows, summary) -> list[str]:
    # Compromised sets are nested prefixes of one permutation, and removing
    # nodes never adds a path within the intact hop budget.
    failures: list[str] = []
    means: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if _col(columns, row, "distance") == -1:
            means.setdefault(_col(columns, row, "kind"), []).append(
                (_col(columns, row, "fraction"), _col(columns, row, "mean_count")))
    for kind, series in means.items():
        series.sort()
        for (f0, m0), (f1, m1) in zip(series, series[1:]):
            if m1 > m0:
                failures.append(f"{kind}: mean count rises from {m0} at {f0} to {m1} at {f1}")
    return failures


def _diversion_units(columns, rows, summary) -> int:
    return len(rows)


def _diversion(columns, rows, summary) -> list[str]:
    # Zeroing the hijacker's weight lowers only paths through it.
    base, diverted = summary["baseline_fraction"], summary["diverted_fraction"]
    return _expect(f"diverted fraction {diverted} is below baseline {base}", diverted >= base)


TOPOLOGY_KINDS = ("grid", "erdos-renyi", "waxman", "hexagonal", "tree", "barabasi-albert")

# Only network.topology and network.paths.  One decay task per family rather
# than one over all six, so that each task is short next to the host's slow
# spells and is timed between two nearby reference calls (see reference.py).
TOPOLOGY_TASKS = tuple(
    Task(f"decay-{kind}", "topology-decay", {"kinds": [kind]}, decay_evaluations, _decay)
    for kind in TOPOLOGY_KINDS
) + (
    Task("diversion-grid", "diversion", {"kind": "grid", "pairs": 200},
         _diversion_units, _diversion),
    Task("diversion-barabasi-albert", "diversion",
         {"kind": "barabasi-albert", "pairs": 200}, _diversion_units, _diversion),
)


# ---------------------------------------------------------------------------
# network: connection floods
# ---------------------------------------------------------------------------

def _dos_units(columns, rows, summary) -> int:
    row = rows[0]
    return int(_col(columns, row, "legit_arrivals")) + int(_col(columns, row, "attack_arrivals"))


def _dos(columns, rows, summary) -> list[str]:
    return _expect("dos arrivals are not conserved", summary["conservation_ok"])


# Only network.dos: six light-backlog tasks and one heavy one.
DOS_TASKS = (
    Task("dos-none", "dos", {"mitigation": "none"}, _dos_units, _dos),
    Task("dos-rate-limit", "dos", {"mitigation": "rate-limit"}, _dos_units, _dos),
    Task("dos-rate-limit-4-sources", "dos",
         {"mitigation": "rate-limit", "attack_sources": 4}, _dos_units, _dos),
    Task("dos-embryonic-cap", "dos", {"mitigation": "embryonic-cap"}, _dos_units, _dos),
    Task("dos-embryonic-cap-20-servers", "dos",
         {"mitigation": "embryonic-cap", "servers": 20}, _dos_units, _dos),
    # Ten sources ranked per pick over a short window: the ranking's cost
    # varies with the seed, so this task is kept light.
    Task("dos-suspicion-10s", "dos", {"mitigation": "suspicion-scheduler", "duration": 10000},
         _dos_units, _dos),
    # The one heavy-backlog task: the queue grows by about 90 requests
    # per simulated second for 40 seconds.  With one legitimate source the
    # scheduler ranks two sources per pick, so the O(queue) scan, not the
    # seed-dependent number of sources queued, sets the cost.
    Task("dos-suspicion-heavy", "dos",
         {"mitigation": "suspicion-scheduler", "duration": 40000, "attack_rate": 100,
          "legit_sources": 1},
         _dos_units, _dos),
)


# Two workloads, so that each run can be long enough to average over the
# host's speed drift.  Each planned optimisation is exercised by one workload
# and bypassed by the other: the batch-first protocol core by ``physics``, the
# walk-count kernel and the DoS scheduler by ``network``.
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("physics", "rounds, pulses, photons and blocks", PROTOCOL_TASKS + PHOTON_TASKS),
        Workload("network", "evaluations, routed pairs and arrivals", TOPOLOGY_TASKS + DOS_TASKS),
    )
}

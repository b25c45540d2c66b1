"""Acceptance suite: the package's end-to-end contract checks.

Each test evaluates one numbered criterion at full stated sample size and
tolerance, prints exactly one ``ACCEPTANCE n: PASS|FAIL`` line to the real
stdout (capture is suspended for the print, so the verdicts appear even for
passing tests), and then asserts.  A FAIL line carries the measured values;
a failing criterion here is a finding about the simulated system, not
necessarily a bug in the code under test.
"""
import math

import numpy as np
import pytest
from scipy.stats import poisson as sp_poisson

from qntl import attacks, qkd
from qntl.cli.config import resolve_config
from qntl.cli.report import rows_to_csv
from qntl.cli.runners import EXPERIMENTS, get_experiment
from qntl.network import Mitigation, dos_simulate, untrusted_node_experiment
from qntl.quantum import Basis, bell_pair, encoded_qubit
from qntl.stats import stream

from distcheck import chi_square_gof
from oracles import catalog_sha256, chsh_value

from pathlib import Path

PINNED_SHA = Path(__file__).parent / "data" / "catalog.sha256"


@pytest.fixture
def check(capsys):
    def emit(n: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_photon_number_distributions(check):
    strategies = [
        attacks.PnsStrategy.no_eve(),
        attacks.PnsStrategy.random_intercept(0.5),
        attacks.PnsStrategy.always_minus_one(),
    ]
    result = attacks.pns_experiment(100_000, 5.0, strategies, stream(42, "acc-pns"))

    minus = result.histograms["always-minus-one"]
    p0 = minus.counts[0] / minus.total
    p0_expected = 6.0 * math.exp(-5.0)  # P(X=0) + P(X=1) for X ~ Poisson(5)

    # stealing a fixed fraction of each pulse thins Poisson(5) to Poisson(2.5)
    p_value = chi_square_gof(
        result.histograms["random-0.5"], lambda k: float(sp_poisson.pmf(k, 2.5))
    )
    z_random = result.max_abs_z("random-0.5")
    z_minus = result.max_abs_z("always-minus-one")

    ok = abs(p0 - p0_expected) < 0.004 and p_value > 0.01 and z_random > z_minus
    check(
        1,
        ok,
        f"P(0)={p0:.4f} vs {p0_expected:.4f}+-0.004, chi2 p={p_value:.3f}, "
        f"max|z| random={z_random:.1f} > minus-one={z_minus:.1f}",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_probe_gain_slopes(check):
    n = 100_000
    rng = stream(42, "acc-trojan")
    slopes = {}
    for name, policy in (
        ("no-shift", attacks.TrojanPolicy.no_shift()),
        ("fixed", attacks.TrojanPolicy.fixed_shift(math.pi / 2)),
        ("random", attacks.TrojanPolicy.random_shift()),
    ):
        [gain] = attacks.trojan_gain_experiment([n], policy, rng)
        slopes[name] = float(gain) / n

    gap = abs(slopes["fixed"] - slopes["random"])
    ok = (
        abs(slopes["no-shift"] - 0.750) <= 0.008
        and abs(slopes["fixed"] - 0.625) <= 0.008
        and abs(slopes["random"] - 0.625) <= 0.008
        and gap < 0.01
    )
    check(
        2,
        ok,
        f"gain/photon no-shift={slopes['no-shift']:.4f} (0.750+-0.008), "
        f"fixed={slopes['fixed']:.4f}, random={slopes['random']:.4f} "
        f"(0.625+-0.008), |fixed-random|={gap:.4f} < 0.01",
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_path_decay_across_topologies(check):
    kinds = ["grid", "erdos-renyi", "waxman", "hexagonal", "tree", "barabasi-albert"]
    fractions = [round(0.1 * i, 1) for i in range(10)]
    table = untrusted_node_experiment(
        kinds, fractions, trials=20, pairs_per_trial=20, rng=stream(42, "acc-decay")
    )

    ratios: dict[str, float] = {}
    failing: list[str] = []
    shape_ok = True
    for kind in kinds:
        means = [table.aggregate(kind, f).mean_count for f in fractions]
        baseline = means[0]
        ratios[kind] = means[fractions.index(0.6)] / baseline
        if ratios[kind] > 0.01:
            failing.append(kind)
        # strictly decreasing until the curve first drops below 1% of baseline
        collapse = next(
            (i for i, m in enumerate(means) if m < 0.01 * baseline), len(means)
        )
        shape_ok = shape_ok and all(
            means[i] > means[i + 1] for i in range(min(collapse, len(means) - 1))
        )

    grid_vs_tree = all(
        table.aggregate("grid", f).mean_count >= table.aggregate("tree", f).mean_count
        for f in fractions
        if f <= 0.5
    )

    ok = not failing and shape_ok and grid_vs_tree
    ratio_text = " ".join(f"{k}={v:.4f}" for k, v in ratios.items())
    check(
        3,
        ok,
        f"ratio@0.6 {ratio_text}; above-1%: {', '.join(failing) or 'none'}; "
        f"strictly-decreasing={shape_ok}; grid>=tree@<=0.5={grid_vs_tree}",
    )


# ---------------------------------------------------------------- criterion 4

def intercept_resend_qber_oracle() -> float:
    """Exact 16-branch enumeration of the sifted error rate under an
    intercept-resend relay: (sender bit, sender basis, relay basis, relay
    outcome), each branch weighted by its quantum probability."""
    total_error = 0.0
    for bit in (0, 1):
        for a_basis in (Basis.RECTILINEAR, Basis.DIAGONAL):
            sent = encoded_qubit(bit, a_basis)
            for e_basis in (Basis.RECTILINEAR, Basis.DIAGONAL):
                for outcome in (0, 1):
                    eve_state = encoded_qubit(outcome, e_basis)
                    p_outcome = abs(np.vdot(eve_state.amplitudes, sent.amplitudes)) ** 2
                    wrong = encoded_qubit(1 - bit, a_basis)
                    p_bob_wrong = abs(np.vdot(wrong.amplitudes, eve_state.amplitudes)) ** 2
                    total_error += (1 / 8) * p_outcome * p_bob_wrong
    return total_error


def test_criterion_04_bb84_oracle_suite(check):
    honest = qkd.run_bb84(100_000, stream(42, "acc-bb84-honest"))
    sift_fraction = honest.sifted_count / 100_000

    oracle = intercept_resend_qber_oracle()
    attacked = qkd.run_bb84(
        100_000,
        stream(42, "acc-bb84-attack"),
        eavesdropper=attacks.intercept_resend(),
        disclosed_fraction=0.5,
    )

    ok = (
        honest.qber_estimate == 0.0
        and abs(sift_fraction - 0.5) <= 0.01
        and abs(oracle - 0.25) < 1e-12
        and abs(attacked.qber_estimate - oracle) <= 0.01
        and attacked.aborted
        and attacked.abort_reason == "error rate above abort threshold"
    )
    check(
        4,
        ok,
        f"honest qber={honest.qber_estimate}, sifted={sift_fraction:.4f} (0.5+-0.01), "
        f"oracle={oracle:.4f}, attacked qber={attacked.qber_estimate:.4f} "
        f"(oracle+-0.01), aborted={attacked.aborted}",
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_chsh_suite(check):
    s_optimal = chsh_value(bell_pair())
    probed = attacks.probe_infiltrate(bell_pair())
    s_probed = chsh_value(probed, trace_out=[2])

    detections = sum(
        qkd.run_e91(1600, stream(seed, "acc-e91"), pair_hook=attacks.probe_hook())
        .eavesdrop_detected
        for seed in range(100)
    )

    ok = (
        abs(s_optimal - 2.0 * math.sqrt(2.0)) < 1e-9
        and s_probed <= 2.0 + 1e-9
        and detections >= 99
    )
    check(
        5,
        ok,
        f"S={s_optimal:.10f} (2sqrt2+-1e-9), probed S={s_probed:.6f} <= 2, "
        f"detections={detections}/100 (>=99)",
    )


# ---------------------------------------------------------------- criterion 6

def majority_flip_probability(p: float) -> float:
    """Enumerate all 8 three-bit error patterns; a logical error is any
    pattern whose majority vote flips, i.e. two or three physical flips."""
    total = 0.0
    for pattern in range(8):
        flips = [(pattern >> i) & 1 for i in range(3)]
        weight = math.prod(p if f else 1.0 - p for f in flips)
        if sum(flips) >= 2:
            total += weight
    return total


def test_criterion_06_repetition_code_rates(check):
    n = 100_000
    worst = ""
    ok = True
    for p in (0.05, 0.1, 0.2, 0.3):
        expected = majority_flip_probability(p)
        ok = ok and abs(expected - (3 * p**2 - 2 * p**3)) < 1e-12
        iid = attacks.qec_bitflip_experiment(n, p, "iid", stream(7, f"acc-qec-{p}"))
        tol = 3.0 * math.sqrt(expected * (1.0 - expected) / n)
        iid_ok = abs(iid / n - expected) <= tol
        burst = attacks.qec_bitflip_experiment(n, p, "burst-2", stream(7, f"acc-burst-{p}"))
        burst_tol = 3.0 * math.sqrt(p * (1.0 - p) / n)
        burst_ok = abs(burst / n - p) <= burst_tol
        if not (iid_ok and burst_ok):
            worst = f" (failed at p={p})"
        ok = ok and iid_ok and burst_ok
    check(6, ok, f"iid matches 8-pattern oracle and burst-2 matches p at 3 sigma, "
                 f"p in {{0.05,0.1,0.2,0.3}}, n={n}{worst}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_interlock_detection(check):
    n = 10_000
    results = []
    ok = True
    for k in (2, 8, 16):
        rate = 1 - 2 ** (-k / 2)
        rng = stream(11, f"acc-interlock-{k}")
        hits = attacks.interlock_exchange(k, n, rng)
        sigma = math.sqrt(rate * (1.0 - rate) / n)
        ok = ok and abs(hits / n - rate) <= 3.0 * sigma
        results.append(f"k={k}: {hits / n:.4f} vs {rate:.4f}")
    check(7, ok, "; ".join(results) + " (3 sigma, 10^4 trials)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_relay_chain_recovery(check):
    rng = stream(42, "acc-relay")
    ok = True
    for case in range(1000):
        n_relays = 1 + case % 5
        key = rng.integers(0, 2, size=int(rng.integers(8, 129)), dtype=np.int8)
        result = qkd.run_relay_chain(key, n_relays, rng)
        ok = ok and result.recovered_ok and np.array_equal(result.delivered, key)
        ok = ok and len(result.cleartexts) == n_relays
        ok = ok and all(np.array_equal(cleartext, key) for cleartext in result.cleartexts)
        if not ok:
            break
    check(8, ok, "10^3 random keys, 1-5 relays: exact recovery, all exposures logged")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_dos_mitigation_wins(check):
    wins = 0
    conserved = True
    for seed in range(100):
        capped = dos_simulate(
            30_000.0, 5.0, 50.0, 10, Mitigation.embryonic_cap(8), stream(seed, "acc-dos")
        )
        bare = dos_simulate(
            30_000.0, 5.0, 50.0, 10, Mitigation.none(), stream(seed, "acc-dos")
        )
        conserved = conserved and capped.conservation_ok() and bare.conservation_ok()
        if capped.legit_served_fraction > bare.legit_served_fraction:
            wins += 1
    ok = wins >= 95 and conserved
    check(9, ok, f"embryonic-cap(8) wins {wins}/100 paired seeds (>=95), "
                 f"conservation={conserved}")


# ---------------------------------------------------------------- criterion 10

SMALL_PARAMS: dict[str, dict[str, str]] = {
    "pns": {"pulses": "10000"},
    "trojan": {"photons": "5000"},
    "bb84": {"rounds": "2000"},
    "e91": {"rounds": "1000"},
    "relay": {},
    "decoy": {"pulses": "2000"},
    "qec": {"flip_probs": "0.1", "blocks": "2000"},
    "interlock": {"message_bits": "2,8", "trials": "2000"},
    "topology-decay": {"kinds": "grid,tree", "fractions": "0,0.3", "trials": "2", "pairs": "4"},
    "diversion": {"pairs": "50"},
    "dos": {"duration": "5000"},
}


def test_criterion_10_determinism_and_pinned_catalog(check):
    assert set(SMALL_PARAMS) == set(EXPERIMENTS)  # force coverage of new entries
    unstable = []
    for name in sorted(SMALL_PARAMS):
        exp = get_experiment(name)
        config = resolve_config(
            name, exp.specs, SMALL_PARAMS[name], None, 7, None, "csv", None
        )
        col_a, rows_a, _ = exp.run(config.params, config.seed)
        col_b, rows_b, _ = exp.run(config.params, config.seed)
        if rows_to_csv(col_a, rows_a) != rows_to_csv(col_b, rows_b):
            unstable.append(name)
    pinned = catalog_sha256() == PINNED_SHA.read_text().strip()
    ok = not unstable and pinned
    check(
        10,
        ok,
        f"byte-identical rows for all {len(SMALL_PARAMS)} experiments"
        f"{' except ' + ', '.join(unstable) if unstable else ''}; "
        f"catalog checksum pinned={pinned}",
    )

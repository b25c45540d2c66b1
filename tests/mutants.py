"""Mutation panel: named faults that the tests must catch.

Each mutant replaces one exact text in one file under ``src/`` and names the
tests that must then fail, each of them on its own.  The panel applies each
mutant to a temporary copy of ``src/`` and runs every named test there in a
pytest process of its own (``-x -q``), so a test that stops catching its
mutant shows even when another named test still does.  It prints one line
per (mutant, test) pair and reports every pair whose test passes as missed.

Run from anywhere:

    python tests/mutants.py               # every mutant
    python tests/mutants.py --only NAME   # one mutant

The exit status is 1 when any named test misses its mutant.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/
    text: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "emit-draws-at-mean-0",
        "qntl/photonics.py",
        "    if mean_photons == 0:\n        return np.zeros(size, np.intp)\n",
        "",
        ("tests/test_photonics.py::test_fixed_sources_leave_the_stream_alone",),
    ),
    Mutant(
        "transmit-cumulative-survivors",
        "qntl/photonics.py",
        "return np.diff(survived[np.cumsum(photons)], prepend=0)",
        "return survived[np.cumsum(photons)]",
        ("tests/test_photonics.py::test_transmit_matches_array_reference",),
    ),
    Mutant(
        "gate-click-before-channel",
        "qntl/qkd.py",
        "        if channel is not None:\n"
        "            arrived = transmit(arrived, channel, rng)\n"
        "        u = rng.random(size)\n",
        "        u = rng.random(size)\n"
        "        if channel is not None:\n"
        "            arrived = transmit(arrived, channel, rng)\n",
        ("tests/test_qkd.py::test_photon_gate_matches_scalar_draws",),
    ),
    Mutant(
        "decoy-no-eve-lossless-bypass",
        "qntl/qkd.py",
        "if attacker.variant is PnsVariant.NO_EVE:",
        "if False:",
        ("tests/test_qkd.py::test_decoy_honest_channel_passes",
         "tests/test_cli.py::test_decoy_vacuum_is_a_zero_intensity_and_no_eve_is_no_attack",
         "tests/test_golden.py::test_rows_match_golden_pins"),
    ),
    Mutant(
        "pns-extra-uniform-at-chunk-boundary",
        "qntl/attacks.py",
        "        skimmed += Histogram.from_samples(emitted, max_bin=top).counts\n",
        "        skimmed += Histogram.from_samples(emitted, max_bin=top).counts\n"
        "        if start + k < n_pulses:\n"
        "            rng.random()\n",
        ("tests/test_attacks.py::test_pns_chunks_match_one_whole_draw[32769]",
         "tests/test_attacks.py::test_pns_chunks_match_one_whole_draw[98303]",
         "tests/test_golden.py::test_rows_match_golden_pins"),
    ),
    Mutant(
        "pns-skim-dropped",
        "qntl/attacks.py",
        "    mean = mean * (1.0 - strategy.intercept_probability)\n",
        "",
        ("tests/test_attacks.py::test_pns_random_intercept_thins_poisson",
         "tests/test_attacks.py::test_pns_chunks_match_one_whole_draw[10000]",
         "tests/test_golden.py::test_rows_match_golden_pins"),
    ),
    Mutant(
        "dos-no-patience-check",
        "qntl/network/dos.py",
        '        ("patience_ms", patience_ms, False),\n',
        "",
        ("tests/test_dos.py::test_simulate_rejects_negative_and_non_finite_inputs",),
    ),
    Mutant(
        "dag-pass-ignores-compromised",
        "qntl/network/paths.py",
        "            if node not in blocked\n",
        "",
        ("tests/test_network.py::test_counts_match_blocked_walk_oracle[grid]",
         "tests/test_network.py::test_cut_disconnects_count"),
    ),
    Mutant(
        "dag-disjoint-shortcut-always",
        "qntl/network/paths.py",
        "if nodes.isdisjoint(blocked):",
        "if True:",
        ("tests/test_network.py::test_counts_match_blocked_walk_oracle[erdos-renyi]",
         "tests/test_network.py::test_count_is_zero_when_every_geodesic_is_blocked"),
    ),
    Mutant(
        "walk-scan-from-deepest-layer",
        "qntl/network/paths.py",
        "enumerate(layers, 1)",
        "enumerate(itertools.islice(layers, len(layers) - 1, None), len(layers))",
        ("tests/test_network.py::test_shared_walks_match_networkx[grid]",
         "tests/test_network.py::test_shared_walks_match_networkx[disconnected]",
         "tests/test_golden.py::test_rows_match_golden_pins"),
    ),
    Mutant(
        "walk-table-shared-across-topologies",
        "qntl/network/paths.py",
        "table = _walks(graph)",
        "table = _walks(None)",
        ("tests/test_network.py::test_intact_memo_keys_on_the_topology",
         "tests/test_network.py::test_shared_walks_match_networkx[grid]"),
    ),
    Mutant(
        "walk-one-way-per-node",
        "qntl/network/paths.py",
        "ahead[nbr] += node_ways",
        "ahead[nbr] = node_ways",
        ("tests/test_network.py::test_counts_and_distances_match_networkx",
         "tests/test_network.py::test_counts_match_blocked_walk_oracle[grid]",
         "tests/test_network.py::test_grid_corner_path_count",
         "tests/test_network.py::test_intact_memo_answers_only_its_own_pair"),
    ),
    Mutant(
        "route-no-hop-tie-break",
        "qntl/network/paths.py",
        "hops + 1",
        "hops",
        ("tests/test_network.py::test_uniform_weights_match_shortest_hop",
         "tests/test_network.py::test_route_matches_brute_force_over_simple_paths"),
    ),
    Mutant(
        "route-weights-mutated-in-place",
        "qntl/network/paths.py",
        "weights = {**weights, **lies}",
        "weights.update(lies)",
        ("tests/test_network.py::test_advertised_weights_override_only_listed_nodes",
         "tests/test_golden.py::test_rows_match_golden_pins"),
    ),
    Mutant(
        "decay-bisect-left",
        "qntl/network/experiments.py",
        "from bisect import bisect_right\n",
        "from bisect import bisect_left as bisect_right\n",
        ("tests/test_network.py::test_decay_rows_match_per_row_reference",),
    ),
    Mutant(
        "decay-one-endpoint-rank",
        "qntl/network/experiments.py",
        "min(rank[u], rank[v])",
        "rank[u]",
        ("tests/test_network.py::test_decay_rows_match_per_row_reference",),
    ),
    Mutant(
        "decay-no-break-at-zero",
        "qntl/network/experiments.py",
        "                        if not pair_counts[k]:\n"
        "                            break\n",
        "",
        ("tests/test_network.py::test_decay_rows_match_per_row_reference",),
    ),
    Mutant(
        "decay-moments-on-float64",
        "qntl/network/experiments.py",
        "dtype=np.int64).T.copy()",
        "dtype=np.float64).T.copy()",
        ("tests/test_network.py::test_decay_moments_match_per_row_calls[long-rows]",),
    ),
    Mutant(
        "decay-lattice-reuse-every-family",
        "qntl/network/experiments.py",
        "if topology is None or kind not in LATTICE_KINDS:",
        "if topology is None:",
        ("tests/test_network.py::test_decay_rows_match_per_row_reference",),
    ),
    Mutant(
        "topology-ascending-skips-u-below-v",
        "qntl/network/topology.py",
        "if u >= v or type(edge) is not tuple or edge <= previous:",
        "if type(edge) is not tuple or edge <= previous:",
        ("tests/test_network.py::test_topology_validation",),
    ),
    Mutant(
        "topology-ascending-allows-equal",
        "qntl/network/topology.py",
        "if u >= v or type(edge) is not tuple or edge <= previous:",
        "if u >= v or type(edge) is not tuple or edge < previous:",
        ("tests/test_network.py::test_topology_validation",),
    ),
    Mutant(
        "topology-ascending-skips-order",
        "qntl/network/topology.py",
        "if u >= v or type(edge) is not tuple or edge <= previous:",
        "if u >= v or type(edge) is not tuple:",
        ("tests/test_network.py::test_topology_validation",),
    ),
    Mutant(
        "topology-ascending-allows-lists",
        "qntl/network/topology.py",
        "if u >= v or type(edge) is not tuple or edge <= previous:",
        "if u >= v or edge <= previous:",
        ("tests/test_network.py::test_topology_validation",),
    ),
    Mutant(
        "preferential-edges-unsorted",
        "qntl/network/topology.py",
        "    return sorted(edges)\n",
        "    return edges\n",
        ("tests/test_network.py::test_preferential_edges_match_numpy_reference",
         "tests/test_network.py::test_barabasi_albert_edge_count"),
    ),
    Mutant(
        "preferential-no-new-node-slots",
        "qntl/network/topology.py",
        "        slots += [new] * k\n",
        "",
        ("tests/test_network.py::test_preferential_edges_match_numpy_reference",
         "tests/test_network.py::test_barabasi_albert_exports_are_pinned"),
    ),
    Mutant(
        "preferential-new-node-degree-k-plus-1",
        "qntl/network/topology.py",
        "        slots += [new] * k\n",
        "        slots += [new] * (k + 1)\n",
        ("tests/test_network.py::test_preferential_edges_match_numpy_reference",
         "tests/test_network.py::test_barabasi_albert_exports_are_pinned"),
    ),
    Mutant(
        "preferential-slots-in-attachment-order",
        "qntl/network/topology.py",
        "insort(slots, t)",
        "slots.append(t)",
        ("tests/test_network.py::test_preferential_edges_match_numpy_reference",
         "tests/test_network.py::test_barabasi_albert_exports_are_pinned"),
    ),
    Mutant(
        "quality-range-allows-inf",
        "qntl/network/topology.py",
        "if not 0.0 <= lo <= hi < math.inf:",
        "if not 0.0 <= lo <= hi:",
        ("tests/test_network.py::test_generation_quality_ranges",),
    ),
    Mutant(
        "float-pair-allows-inf",
        "qntl/cli/runners.py",
        "not 0.0 <= values[0] <= values[1] < math.inf",
        "not 0.0 <= values[0] <= values[1]",
        ("tests/test_cli.py::test_diversion_rejects_an_infinite_quality_range[response-time]",),
    ),
    Mutant(
        "registry-loads-qkd-eagerly",
        "qntl/cli/runners.py",
        "from ..stats import stream\n",
        "from .. import qkd  # noqa: F401\nfrom ..stats import stream\n",
        ("tests/test_cli.py::test_import_loads_no_scipy_or_networkx",
         "tests/test_cli.py::test_dos_run_loads_no_physics_module",
         "tests/test_cli.py::test_pns_run_loads_no_qkd_photonics_or_network_module"),
    ),
    Mutant(
        "main-loads-plotdata-eagerly",
        "qntl/cli/main.py",
        "from .report import ExperimentReport\n",
        "from .plotdata import FIGURES, emit_plotdata  # noqa: F401\n"
        "from .report import ExperimentReport\n",
        ("tests/test_cli.py::test_no_run_loads_the_catalog_or_plot_stack",),
    ),
    Mutant(
        "trojan-phase-carry-dropped",
        "qntl/attacks.py",
        "            gains[0] += carry\n",
        "",
        ("tests/test_attacks.py::test_random_shift_gains_are_the_phase_formula_bit_for_bit",),
    ),
    Mutant(
        "trojan-checkpoint-side-flipped",
        "qntl/attacks.py",
        "(start, start + gains.size), side=\"right\")",
        "(start, start + gains.size), side=\"left\")",
        ("tests/test_attacks.py::test_random_shift_gains_are_the_phase_formula_bit_for_bit",),
    ),
    Mutant(
        "interlock-rate-squared",
        "qntl/attacks.py",
        "rng.binomial(trials, rate)",
        "rng.binomial(trials, rate * rate)",
        ("tests/test_attacks.py::test_interlock_matches_per_call_reference",
         "tests/test_acceptance.py::test_criterion_07_interlock_detection"),
    ),
    Mutant(
        "measure-rotated-second-uniform",
        "qntl/quantum.py",
        "    return out0 if rng.random() < threshold else out1\n",
        "    rng.random()\n    return out0 if rng.random() < threshold else out1\n",
        ("tests/test_quantum.py::test_measure_rotated_matches_reference_kernel",),
    ),
    Mutant(
        "measure-rotated-sin-sign-flipped",
        "qntl/quantum.py",
        "return np.array([[c, s], [-s, c]])",
        "return np.array([[c, s], [s, c]])",
        ("tests/test_quantum.py::test_measure_rotated_matches_reference_kernel",),
    ),
    Mutant(
        "measure-rotated-amplitude-skew",
        "qntl/quantum.py",
        "            post /= math.sqrt(",
        "            post[0] += 1e-11\n            post /= math.sqrt(",
        ("tests/test_quantum.py::test_measure_rotated_matches_reference_kernel",),
    ),
    Mutant(
        "suspicion-window-counts-all-arrivals",
        "qntl/network/dos.py",
        "bisect_left(times, since)",
        "0",
        ("tests/test_golden.py::test_rows_match_golden_pins",
         "tests/test_dos.py::test_suspicion_scheduler_matches_per_pick_reference"),
    ),
    Mutant(
        "suspicion-newer-head-first",
        "qntl/network/dos.py",
        "line[0] < best[0]",
        "line[0] > best[0]",
        ("tests/test_golden.py::test_rows_match_golden_pins",
         "tests/test_dos.py::test_suspicion_scheduler_matches_per_pick_reference"),
    ),
    Mutant(
        "suspicion-seq-tie-break-dropped",
        "qntl/network/dos.py",
        "count < best_count or count == best_count and line[0] < best[0]",
        "count < best_count",
        ("tests/test_golden.py::test_rows_match_golden_pins",
         "tests/test_dos.py::test_suspicion_scheduler_matches_per_pick_reference"),
    ),
    Mutant(
        "dos-attackers-abandon",
        "qntl/network/dos.py",
        "                if is_attack[j]:\n"
        "                    holds.setdefault(source[j], []).append(start + hold[j])\n"
        "                elif start - arrival[j] > patience_ms:\n"
        "                    dropped[False] += 1\n"
        "                    continue\n",
        "                if start - arrival[j] > patience_ms:\n"
        "                    dropped[is_attack[j]] += 1\n"
        "                    continue\n"
        "                elif is_attack[j]:\n"
        "                    holds.setdefault(source[j], []).append(start + hold[j])\n",
        ("tests/test_dos.py::test_queue_invariants_over_source_mixes",
         "tests/test_dos.py::test_embryonic_cap_throttles_the_flood",
         "tests/test_dos.py::test_suspicion_scheduler_matches_per_pick_reference",
         "tests/test_golden.py::test_rows_match_golden_pins"),
    ),
    Mutant(
        "dos-service-10pct-longer",
        "qntl/network/dos.py",
        "_exponential(mean_service_ms, n_legit, rng)",
        "_exponential(1.1 * mean_service_ms, n_legit, rng)",
        ("tests/test_dos.py::test_outcomes_match_per_arrival_reference[embryonic-cap-2-8-servers]",
         "tests/test_dos.py::test_suspicion_scheduler_matches_per_pick_reference",
         "tests/test_dos.py::test_unattacked_queue_matches_erlang_c_mean_wait",
         "tests/test_golden.py::test_rows_match_golden_pins"),
    ),
)


def missed_by(mutant: Mutant) -> list[tuple[str, bool]]:
    """Apply ``mutant`` to a copy of ``src/`` and run each of its tests
    there alone: (test, whether it passed and so missed the mutant)."""
    results = []
    with tempfile.TemporaryDirectory(prefix="qntl-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.name}: text does not occur exactly once in {mutant.path}")
        target.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
        for test in mutant.tests:
            # The ini's pythonpath would put the unmutated src/ first.
            command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                       "-o", f"pythonpath={src}", test]
            result = subprocess.run(command, cwd=REPO, env=env, capture_output=True, text=True)
            if result.returncode not in (0, 1):
                raise SystemExit(
                    f"{mutant.name}: pytest exited {result.returncode} on {test}\n{result.stdout}"
                )
            results.append((test, result.returncode == 0))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=[m.name for m in MUTANTS], help="run one mutant")
    args = parser.parse_args(argv)
    misses = []
    for mutant in MUTANTS:
        if args.only and mutant.name != args.only:
            continue
        for test, missed in missed_by(mutant):
            print(f"{mutant.name}: {test}: {'MISSED' if missed else 'caught'}", flush=True)
            if missed:
                misses.append(f"{mutant.name} by {test}")
    if misses:
        print(f"{len(misses)} missed: {', '.join(misses)}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())

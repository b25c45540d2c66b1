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
         "tests/test_network.py::test_count_falls_back_when_every_geodesic_is_blocked"),
    ),
    Mutant(
        "count-bound-at-distance-is-zero",
        "qntl/network/paths.py",
        "bound < distance)",
        "bound <= distance)",
        ("tests/test_network.py::test_counts_match_blocked_walk_oracle[tree]",
         "tests/test_network.py::test_hop_bound_excludes_detours"),
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
        "decay-lattice-reuse-every-family",
        "qntl/network/experiments.py",
        "if topology is None or kind not in LATTICE_KINDS:",
        "if topology is None:",
        ("tests/test_network.py::test_decay_rows_match_per_row_reference",),
    ),
    Mutant(
        "topology-ascending-skips-u-below-v",
        "qntl/network/topology.py",
        "if u >= v or edge <= previous:",
        "if edge <= previous:",
        ("tests/test_network.py::test_topology_validation",
         "tests/test_network.py::test_topology_normalises_unsorted_reversed_edges"),
    ),
    Mutant(
        "topology-ascending-allows-equal",
        "qntl/network/topology.py",
        "if u >= v or edge <= previous:",
        "if u >= v or edge < previous:",
        ("tests/test_network.py::test_topology_validation",),
    ),
    Mutant(
        "topology-ascending-skips-order",
        "qntl/network/topology.py",
        "if u >= v or edge <= previous:",
        "if u >= v:",
        ("tests/test_network.py::test_topology_validation",
         "tests/test_network.py::test_topology_normalises_unsorted_reversed_edges"),
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
        "preferential-slots-in-attachment-order",
        "qntl/network/topology.py",
        "insort(slots, t)",
        "slots.append(t)",
        ("tests/test_network.py::test_preferential_edges_match_numpy_reference",
         "tests/test_network.py::test_barabasi_albert_exports_are_pinned"),
    ),
    Mutant(
        "suspicion-window-counts-all-arrivals",
        "qntl/network/dos.py",
        "bisect_left(times, since)",
        "0",
        ("tests/test_golden.py::test_rows_match_golden_pins",),
    ),
    Mutant(
        "suspicion-newer-head-first",
        "qntl/network/dos.py",
        "line[0] < best[0]",
        "line[0] > best[0]",
        ("tests/test_golden.py::test_rows_match_golden_pins",),
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

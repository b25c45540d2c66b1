"""qntl benchmark: one workload per run, closed loop from one client.

    python3 bench/run.py --workload physics --seed 1 --seconds 40 --trace 0

One process and one thread run the workload's fixed task list again and
again, each task starting when the previous one returns, for ``--seconds``
seconds of passes; the first pass is a warm-up and is not timed.  Each task
is what ``qntl run`` does: resolve the params block through the CLI's config
layer, call the registry runner, and format the rows as CSV.  Every task's
output is checked and the sha256 of its CSV rows is compared across passes.

Times are normalised to the host's speed: each task is bracketed by calls to
a fixed reference computation (``reference.py``), and a task's time is its
ratio to the adjacent reference time, scaled to ``reference.NOMINAL_S``.
The raw wall-clock times are recorded next to them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object; a record
with the environment, per-task row digests and per-pass times goes to
``bench/out/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# Timed in a fresh interpreter: what every `qntl run` pays before it starts.
SETUP_PROBE = """\
import statistics, sys, time
start = time.perf_counter()
import qntl
from qntl.cli.runners import EXPERIMENTS
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
from reference import Reference
reference = Reference()
reference.seconds()
print(repr(elapsed), repr(statistics.median(reference.seconds() for _ in range(5))))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "passed_fraction": "fraction",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_qntl() -> None:
    """Put this checkout's sources first on the path and insist on them."""
    if not (SRC / "qntl" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qntl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qntl

    if Path(qntl.__file__).resolve().parent != SRC / "qntl":
        raise SystemExit(f"bench: qntl imported from {qntl.__file__}, not from {SRC}")


def _sample_setup() -> tuple[float, float]:
    """Import time in a fresh interpreter, and the reference's time in that
    interpreter right after the import.  The benchmark's own import has
    written the bytecode cache by then, as any earlier ``qntl run`` would have."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(BENCH)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, reference_s = proc.stdout.strip().splitlines()[-1].split()
    return float(import_s), float(reference_s)


def _environment() -> dict:
    import networkx
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "qntl").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_qntl_lines": lines,
    }


@dataclasses.dataclass
class Pass:
    """One closed-loop pass over a workload's task list."""

    task_s: dict[str, float] = dataclasses.field(default_factory=dict)
    # mean of the reference times taken right before and right after each task
    reference_s: dict[str, float] = dataclasses.field(default_factory=dict)
    units: int = 0
    decay_evaluations: int = 0
    digests: dict[str, str] = dataclasses.field(default_factory=dict)
    failures: dict[str, list[str]] = dataclasses.field(default_factory=dict)


def run_pass(workload, seed: int, ref, tracer=None) -> Pass:
    from qntl.cli import config, report, runners

    from workloads import decay_evaluations, task_seed

    def execute(task, task_seed_value):
        exp = runners.EXPERIMENTS[task.experiment]
        cfg = config.resolve_config(
            exp.name, exp.specs, {}, task.params, task_seed_value, None, "csv", None)
        columns, rows, summary = exp.run(cfg.params, cfg.seed)
        csv = report.rows_to_csv(columns, rows)
        return columns, rows, summary, hashlib.sha256(csv.encode("utf-8")).hexdigest()

    if tracer is not None:
        from tracing import TASK

        execute = tracer.wrap(TASK, execute)
    result = Pass()
    before = ref.seconds()
    for task in workload.tasks:
        start = time.perf_counter()
        try:
            columns, rows, summary, digest = execute(task, task_seed(seed, workload.name, task.name))
        except Exception as exc:  # a task that raises counts as failed; the pass goes on
            result.failures[task.name] = [f"raised {type(exc).__name__}: {exc}"]
            digest = None
        result.task_s[task.name] = time.perf_counter() - start
        after = ref.seconds()
        result.reference_s[task.name] = (before + after) / 2
        before = after
        if digest is None:
            continue
        result.digests[task.name] = digest
        try:
            problems = task.check(columns, rows, summary)
            result.units += task.units(columns, rows, summary)
            if task.experiment == "topology-decay":
                result.decay_evaluations += decay_evaluations(columns, rows, summary)
        except (KeyError, IndexError, TypeError, ValueError, StopIteration) as exc:
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            result.failures[task.name] = problems
    return result


def _determinism_failures(passes: list[Pass]) -> dict[str, list[str]]:
    """Tasks whose CSV rows differ between passes of one seed."""
    failures: dict[str, list[str]] = {}
    for name in passes[0].digests:
        seen = {p.digests.get(name) for p in passes if name in p.digests}
        if len(seen) > 1:
            failures[name] = [f"rows differ between passes: {sorted(seen)}"]
    return failures


def _count(passes: list[Pass], n_tasks: int, extra: dict[str, list[str]]) -> tuple[int, int]:
    attempted = n_tasks * len(passes)
    failed = sum(len(p.failures) for p in passes) + len(extra)
    return attempted, min(failed, attempted)


def _task_medians(passes: list[Pass], normalised: bool = True) -> dict[str, float]:
    """Each task's median time over the passes, normalised to the host's
    speed unless ``normalised`` is false."""
    from reference import NOMINAL_S

    def seconds(p: Pass, name: str) -> float:
        if not normalised:
            return p.task_s[name]
        return p.task_s[name] / p.reference_s[name] * NOMINAL_S

    return {name: statistics.median(seconds(p, name) for p in passes)
            for name in passes[0].task_s}


def _pass_seconds(passes: list[Pass], normalised: bool = True) -> float:
    """Seconds for one pass: the sum over tasks of each task's median time,
    so a slow spell on the host during one task of one pass does not count."""
    return sum(_task_medians(passes, normalised).values())


def measure_end_to_end(workload, seed: int, seconds: float, ref) -> tuple[dict, dict]:
    from reference import NOMINAL_S

    # The host's speed drifts over tens of seconds, so the set-up samples are
    # spread over the run instead of taken in one burst, which also widens
    # the span the passes sample.
    setup: list[tuple[float, float]] = []
    setup_due = [seconds * i / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    spent = 0.0
    passes = [run_pass(workload, seed, ref)]  # warm-up: lazy imports and first-call caches
    while len(passes) <= MIN_PASSES or spent < seconds:
        if len(setup) < SETUP_SAMPLES and spent >= setup_due[len(setup)]:
            setup.append(_sample_setup())
        start = time.perf_counter()
        passes.append(run_pass(workload, seed, ref))
        spent += time.perf_counter() - start
    setup += [_sample_setup() for _ in range(SETUP_SAMPLES - len(setup))]
    timed = passes[1:]
    determinism = _determinism_failures(passes)
    attempted, failed = _count(passes, len(workload.tasks), determinism)
    wall = _pass_seconds(timed)
    metrics = {
        "setup_s": statistics.median(s / r * NOMINAL_S for s, r in setup),
        "wall_s": wall,
        "work_per_s": timed[0].units / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_fraction": 1.0 - failed / attempted,
    }
    record = {
        "setup_import_s": [s for s, _ in setup],
        "setup_reference_s": [r for _, r in setup],
        "raw_wall_s": _pass_seconds(timed, normalised=False),
        "pass_s": [sum(p.task_s.values()) for p in timed],
        "pass_reference_s": [statistics.mean(p.reference_s.values()) for p in timed],
        "task_median_s": _task_medians(timed),
        "raw_task_median_s": _task_medians(timed, normalised=False),
        "work_units": timed[0].units,
        "work_unit": workload.unit,
        "failed_fraction": failed / attempted,
    }
    return metrics, _summarise(record, passes, determinism, attempted, failed)


def measure_per_layer(workload, seed: int, seconds: float, ref) -> tuple[dict, dict]:
    import tracing

    deadline = time.perf_counter() + seconds
    passes = [run_pass(workload, seed, ref)]  # warm-up
    plain: list[Pass] = []
    traced: list[tuple[Pass, tracing.Tracer]] = []
    while (len(traced) < MIN_TRACED_PASSES or len(plain) < MIN_TRACED_PASSES
           or time.perf_counter() < deadline):
        plain.append(run_pass(workload, seed, ref))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced.append((run_pass(workload, seed, ref, tracer), tracer))
    passes += plain + [p for p, _ in traced]
    extra = _determinism_failures(passes)
    calls = traced[-1][1].totals()[0]
    trace_failures = tracing.self_check(workload.name, calls)
    if trace_failures:
        extra["trace self-check"] = trace_failures
    attempted, failed = _count(passes, len(workload.tasks), extra)

    per_pass = [tracing.layer_metrics(t, p.decay_evaluations) for p, t in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced_wall = _pass_seconds([p for p, _ in traced])
    plain_wall = _pass_seconds(plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.spans"] = len(traced[-1][1].spans)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    tracing.write_spans(spans_path, traced[-1][1].spans)
    record = {
        "untraced_pass_s": [sum(p.task_s.values()) for p in plain],
        "traced_pass_s": [sum(p.task_s.values()) for p, _ in traced],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, _summarise(record, passes, extra, attempted, failed)


def _summarise(record: dict, passes: list[Pass], extra: dict, attempted: int, failed: int) -> dict:
    failures: dict[str, list[str]] = {}
    for p in passes:
        for name, problems in p.failures.items():
            failures.setdefault(name, problems)
    failures.update(extra)
    record.update({
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "row_sha256": passes[0].digests,
        "failures": failures,
    })
    return record


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    _import_qntl()
    sys.path.insert(0, str(BENCH))
    from reference import Reference
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2

    ref = Reference()
    if args.trace:
        from tracing import unit as tracing_unit

        metrics, record = measure_per_layer(workload, args.seed, args.seconds, ref)
        units = {name: tracing_unit(name) for name in metrics}
    else:
        metrics, record = measure_end_to_end(workload, args.seed, args.seconds, ref)
        units = END_TO_END_UNITS
    env = _environment()
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, **record}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, digest in record["row_sha256"].items():
        print(f"rows {name}: sha256 {digest}")
    for name, problems in record["failures"].items():
        for problem in problems:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
    if not args.trace:
        print(f"failed_fraction: {record['failed_fraction']:.6g} "
              f"({record['failed']} of {record['attempted']} tasks)")
        print(f"work unit: {record['work_unit']} ({record['work_units']} per pass)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

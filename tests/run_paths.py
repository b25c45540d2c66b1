"""Statements of ``src/qntl`` that no run reaches.

Runs every command path that a user or the benchmark takes, in this process
and under ``sys.settrace``:

- ``qntl run <experiment>`` for every experiment at its defaults, as JSON;
- every ``bench/workloads.py`` task, its params read from a ``--config`` file;
- ``qntl catalog`` as text, as JSON and for one layer;
- ``qntl plot <figure> --svg`` for each figure, on the default report of the
  figure's experiment.

It then prints, per file, the statements that never ran, leaving out
docstrings and ``raise`` statements.  Each one listed serves an input that no
run passes, handles an error, or is a name that ``bench/tracing.py`` patches.
Pytest does not collect this file; ``tests/test_run_paths.py`` checks the run
list.  Run from anywhere (a few seconds):

    python tests/run_paths.py
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCES = REPO / "src" / "qntl"


def commands(workdir: Path) -> list[list[str]]:
    """The argv of every ``qntl`` call, in order.  Writes the config files
    they read into ``workdir`` and points every output there."""
    sys.path.insert(0, str(REPO / "bench"))
    from workloads import WORKLOADS, task_seed

    from qntl.cli.plotdata import FIGURES
    from qntl.cli.runners import EXPERIMENTS

    argvs = []
    reports = {name: workdir / f"{name}.json" for name in sorted(EXPERIMENTS)}
    for name, report in reports.items():
        argvs.append(["run", name, "--format", "json", "--out", str(report)])
    for workload in WORKLOADS.values():
        for task in workload.tasks:
            config = workdir / f"{workload.name}-{task.name}.json"
            seed = task_seed(0, workload.name, task.name)
            config.write_text(json.dumps({"experiment": task.experiment, "seed": seed,
                                          "params": task.params}))
            argvs.append(["run", task.experiment, "--config", str(config),
                          "--out", str(config.with_suffix(".csv"))])
    for extra in ([], ["--format", "json"], ["--layer", "network"]):
        argvs.append(["catalog", *extra, "--out", str(workdir / f"catalog{len(argvs)}.txt")])
    for figure, spec in sorted(FIGURES.items()):
        argvs.append(["plot", figure, "--report", str(reports[spec.experiment]),
                      "--out-dir", str(workdir / figure), "--svg"])
    return argvs


def statements(path: Path) -> dict[int, tuple[int, int]]:
    """First line -> (first, last) line of the part of each statement whose
    line events show that it ran: the whole of a simple statement, the header
    of a compound one.  Docstrings and raise statements are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, owners) and ast.get_docstring(node) is not None}
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise) or node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        spans[node.lineno] = (first, max(first, last))
    return spans


def trace_runs() -> dict[str, set[int]]:
    """Run every command under a line tracer: file name -> lines that ran."""
    ran: dict[str, set[int]] = {}
    prefix = str(SOURCES)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(REPO / "src"))
    with tempfile.TemporaryDirectory(prefix="qntl-run-paths-") as tmp:
        sys.settrace(on_call)
        try:
            from qntl.cli.main import main

            for argv in commands(Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()):
                    status = main(argv)
                if status != 0:
                    raise SystemExit(f"qntl {' '.join(argv)} exited {status}")
        finally:
            sys.settrace(None)
    return ran


def main() -> int:
    ran = trace_runs()
    total = 0
    for path in sorted(SOURCES.rglob("*.py")):
        lines = ran.get(str(path), set())
        text = path.read_text(encoding="utf-8").splitlines()
        missed = [start for start, (first, last) in sorted(statements(path).items())
                  if not any(line in lines for line in range(first, last + 1))]
        if missed:
            print(path.relative_to(REPO))
            for start in missed:
                print(f"  {start:4d}  {text[start - 1].strip()}")
        total += len(missed)
    print(f"{total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())

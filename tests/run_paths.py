"""Statements of ``src/qntl`` that no run reaches.

Runs every command path that a user or the benchmark takes, in this process
and under ``sys.settrace``:

- ``qntl run <experiment>`` for every experiment at its defaults, as JSON;
- every ``bench/workloads.py`` task, its params read from a ``--config`` file;
- ``qntl catalog`` as text, as JSON and for one layer;
- ``qntl plot <figure> --svg`` for each figure, on the default report of the
  figure's experiment.

It then prints, per file, the statements that never ran, leaving out
docstrings and ``raise`` statements, and checks them against the table in
``tests/data/unreached.tsv``.  The table keys each statement by file,
enclosing function and text (not by line number) and gives it one reason
from ``REASONS``.  The script exits 1 when a statement that never ran is
missing from the table, or a table entry now runs or no longer exists; fix
either the code or the table.  Pytest does not collect this file;
``tests/test_run_paths.py`` checks the run list and runs the script.  Run
from anywhere (a few seconds):

    python tests/run_paths.py
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCES = REPO / "src" / "qntl"
TABLE = REPO / "tests" / "data" / "unreached.tsv"
REASONS = (
    "user input",  # an input a user may pass that no run passes
    "error handling",  # the message or exit status of a raised error
    "tracer patch",  # a name bench/tracing.py patches, which no run calls
    "type checking",  # an import only type checkers read
    "test only",  # kept on purpose for a test's oracle or helper
)


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


def statements(path: Path) -> dict[int, tuple[int, int, str]]:
    """First line -> (first, last line, owner) of each statement.  The lines
    are the part whose line events show that it ran: the whole of a simple
    statement, the header of a compound one.  The owner is the dotted name
    of the enclosing function or class, ``<module>`` at the top level.
    Docstrings and raise statements are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *owners))
                  and ast.get_docstring(node) is not None}
    spans = {}

    def visit(parent: ast.AST, owner: str) -> None:
        for node in ast.iter_child_nodes(parent):
            inner = owner
            if isinstance(node, owners):
                inner = node.name if owner == "<module>" else f"{owner}.{node.name}"
            if (isinstance(node, ast.stmt) and not isinstance(node, ast.Raise)
                    and node not in docstrings):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
                spans[node.lineno] = (first, max(first, last), owner)
            visit(node, inner)

    visit(tree, "<module>")
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


def unreached(ran: dict[str, set[int]]) -> list[tuple[str, str, str, int]]:
    """(file under src/qntl, owner, statement text, line) of every statement
    that never ran, in file and line order."""
    missed = []
    for path in sorted(SOURCES.rglob("*.py")):
        lines = ran.get(str(path), set())
        text = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(SOURCES).as_posix()
        for start, (first, last, owner) in sorted(statements(path).items()):
            if not any(line in lines for line in range(first, last + 1)):
                missed.append((name, owner, text[start - 1].strip(), start))
    return missed


def read_table() -> list[tuple[str, str, str]]:
    """(file, owner, statement text) of each row of the table, whose reason
    must be one of ``REASONS``."""
    rows = []
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, owner, reason, text = line.split("\t")
            if reason not in REASONS:
                raise SystemExit(f"{TABLE.name}: unknown reason {reason!r} for {text!r}")
            rows.append((name, owner, text))
    return rows


def main() -> int:
    missed = unreached(trace_runs())
    shown = None
    for name, owner, text, start in missed:
        if name != shown:
            print(f"src/qntl/{name}")
            shown = name
        print(f"  {start:4d}  {text}")
    print(f"{len(missed)} statements never ran")
    found = Counter(key[:3] for key in missed)
    listed = Counter(read_table())
    for key in sorted((found - listed).elements()):
        print("not in the table:  {}  {}  {}".format(*key))
    for key in sorted((listed - found).elements()):
        print("ran or gone, still in the table:  {}  {}  {}".format(*key))
    return 1 if found != listed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Three subcommands: ``run`` executes a named experiment and writes its report,
``catalog`` prints the layered threat table, ``plot`` slices a saved report
into per-series plot data.  Exit status is 0 on success, 2 for configuration
problems (unknown keys, bad values, malformed files), 3 for runtime failures;
configuration diagnostics are single lines naming the offending key.

Each command imports what it alone uses: ``run`` never loads the catalog
or the plot stack, and the registry loads an experiment's layer only when
that experiment runs.
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Sequence

from .config import ConfigError, load_config_file, resolve_config
from .report import ExperimentReport
from .runners import EXPERIMENTS, get_experiment

__all__ = ["main"]


def _usage() -> str:
    from .plotdata import FIGURES

    return """usage: qntl <command> ...

commands:
  run <experiment>   execute an experiment and write its report
  catalog            print the layered threat catalog
  plot <figure>      extract plot series from a saved JSON report

Experiments: """ + ", ".join(sorted(EXPERIMENTS)) + """
Figures: """ + ", ".join(sorted(FIGURES)) + """
Run 'qntl run <experiment> --help' for that experiment's parameters.
"""


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors through the config-error channel."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_run(argv: Sequence[str]) -> int:
    if not argv or argv[0].startswith("-"):
        raise ConfigError(
            "missing experiment name; expected one of " + ", ".join(sorted(EXPERIMENTS))
        )
    exp = get_experiment(argv[0])

    parser = _Parser(prog=f"qntl run {exp.name}", description=exp.help)
    parser.add_argument("--config", default=None, help="JSON scenario file")
    parser.add_argument("--seed", default=None, help="RNG seed (overrides file and QNTL_SEED)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument(
        "--format", default=None, choices=("csv", "json"),
        help="csv writes result rows; json writes the full report",
    )
    for spec in exp.specs:
        parser.add_argument(spec.flag, default=None, metavar="VALUE", help=spec.help)
    args = parser.parse_args(list(argv[1:]))

    flag_values = {
        spec.name: getattr(args, spec.name)
        for spec in exp.specs
        if getattr(args, spec.name) is not None
    }

    file_params: dict[str, Any] | None = None
    file_seed: Any = None
    file_output: dict[str, Any] = {}
    if args.config is not None:
        doc = load_config_file(args.config)
        file_experiment = doc.get("experiment")
        if file_experiment is not None and file_experiment != exp.name:
            raise ConfigError(
                f"config file is for experiment {file_experiment!r}, not {exp.name!r}"
            )
        file_params = doc.get("params")
        file_seed = doc.get("seed")
        file_output = doc.get("output") or {}

    output_format = args.format or file_output.get("format") or "csv"
    output_path = args.out if args.out is not None else file_output.get("path")

    config = resolve_config(
        exp.name, exp.specs, flag_values, file_params, args.seed, file_seed,
        output_format, output_path,
    )

    start = time.perf_counter()
    columns, rows, summary = exp.run(config.params, config.seed)
    duration_ms = (time.perf_counter() - start) * 1000.0

    report = ExperimentReport(
        config=config.echo(),
        columns=tuple(columns),
        rows=tuple(tuple(r) for r in rows),
        summary=summary,
        duration_ms=duration_ms,
    )
    text = report.rows_csv() if config.output_format == "csv" else report.to_json()
    _write_output(text, config.output_path)
    return 0


def _cmd_catalog(argv: Sequence[str]) -> int:
    from .catalog import catalog_json, filter_catalog, format_catalog_table, load_catalog

    parser = _Parser(prog="qntl catalog")
    parser.add_argument("--layer", default=None, help="show only one layer's entries")
    parser.add_argument("--format", default="text", choices=("text", "json"))
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    args = parser.parse_args(list(argv))

    entries = filter_catalog(load_catalog(), args.layer)
    text = catalog_json(entries) if args.format == "json" else format_catalog_table(entries)
    _write_output(text, args.out)
    return 0


def _cmd_plot(argv: Sequence[str]) -> int:
    from .plotdata import FIGURES, emit_plotdata

    parser = _Parser(prog="qntl plot")
    parser.add_argument("figure", help="one of " + ", ".join(sorted(FIGURES)))
    parser.add_argument("--report", required=True, help="JSON report produced by 'run --format json'")
    parser.add_argument("--out-dir", default=".", help="directory for the series files")
    parser.add_argument("--svg", action="store_true", help="also render SVG line charts")
    args = parser.parse_args(list(argv))

    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(
            f"cannot read report {args.report}: {exc.strerror or exc}"
        ) from None
    try:
        report = ExperimentReport.from_json(text)
    except ValueError as exc:
        raise ConfigError(f"malformed report {args.report}: {exc}") from None

    written = emit_plotdata(report, args.figure, args.out_dir, svg=args.svg)
    for path in written:
        print(path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_usage())
        return 0
    command, rest = argv[0], argv[1:]
    try:
        if command == "run":
            return _cmd_run(rest)
        if command == "catalog":
            return _cmd_catalog(rest)
        if command == "plot":
            return _cmd_plot(rest)
        raise ConfigError(f"unknown command {command!r}; expected run, catalog, or plot")
    except ConfigError as exc:
        print(f"qntl: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure inside an otherwise valid scenario
        print(f"qntl: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

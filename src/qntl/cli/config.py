"""Scenario configuration: file loading, flag merging, strict validation.

Precedence for every setting is flags, then config file, then the QNTL_SEED
environment variable (seed only), then built-in defaults.  Parsing is
strict: an unknown key anywhere is a one-line error naming the key, never a
warning, so a typo cannot silently fall back to a default.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "ConfigError",
    "ParamSpec",
    "ScenarioConfig",
    "ENV_SEED",
    "parse_range",
    "parse_int_list",
    "parse_str_list",
    "load_config_file",
    "resolve_config",
]

ENV_SEED = "QNTL_SEED"

# start:stop:step expansion tolerance; guards float accumulation at the stop.
_RANGE_EPS = 1e-12
# Most values a start:stop:step range may expand to.
_RANGE_MAX_VALUES = 10_000


class ConfigError(Exception):
    """Configuration is malformed; the message is a one-line diagnostic."""


def parse_range(text: str) -> list[float]:
    """Expand a numeric list: ``start:stop:step`` or comma-separated values.

    Range notation is inclusive at start and exclusive at stop, e.g.
    ``0:0.9:0.1`` -> [0.0, 0.1, ..., 0.8].  A bare number is a one-item list.
    A range that would expand past ``_RANGE_MAX_VALUES`` values is refused.
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty numeric list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric range component in {text!r}") from None
        if step <= 0.0:
            raise ConfigError(f"range step must be positive, got {step}")
        if stop < start:
            raise ConfigError(f"range stop {stop} precedes start {start}")
        values: list[float] = []
        k = 0
        while True:
            value = start + k * step
            if value >= stop - _RANGE_EPS:
                break
            if k == _RANGE_MAX_VALUES:
                raise ConfigError(f"range {text!r} expands past {_RANGE_MAX_VALUES} values")
            # round off accumulation noise so 0:0.9:0.1 yields 0.3, not 0.30000000000000004
            values.append(round(value, 12))
            k += 1
        if not values:
            raise ConfigError(f"range {text!r} expands to nothing")
        return values
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"non-numeric list component in {text!r}") from None


def parse_int_list(text: str) -> list[int]:
    """Like :func:`parse_range` but every value must be a whole number."""
    values = parse_range(text)
    out = []
    for v in values:
        if v != int(v):
            raise ConfigError(f"expected integers, got {v}")
        out.append(int(v))
    return out


def parse_str_list(text: str) -> list[str]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError("empty list")
    return items


@dataclass(frozen=True)
class ParamSpec:
    """One experiment parameter: its config key, parser, and default.

    ``parse`` maps the raw config value (string from a flag, or whatever the
    JSON file held) to the runtime value; ``echo`` maps the runtime value
    back to the JSON-safe form recorded in the report.  The echoed form must
    re-parse to an equal runtime value, which is what makes a report's
    embedded config re-runnable.
    """

    name: str
    parse: Callable[[Any], Any]
    default: Any
    help: str
    echo: Callable[[Any], Any] = staticmethod(lambda v: v)

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: what to run, how it is seeded, where results go."""

    experiment: str
    seed: int
    params: Mapping[str, Any]
    output_format: str = "csv"
    output_path: str | None = None

    def echo(self, specs: Sequence[ParamSpec]) -> dict[str, Any]:
        """JSON-safe resolved-config block for embedding in the report."""
        by_name = {s.name: s for s in specs}
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "params": {
                key: by_name[key].echo(value) for key, value in sorted(self.params.items())
            },
            "output": {"format": self.output_format, "path": self.output_path},
        }


def load_config_file(path: str) -> dict[str, Any]:
    """Read a JSON scenario file and validate its top-level shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = {"experiment", "seed", "params", "output"}
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config 'params' must be an object")
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("config 'output' must be an object")
    for key in output:
        if key not in ("format", "path"):
            raise ConfigError(f"unknown output key {key!r}")
    return raw


def _resolve_seed(flag_seed: int | None, file_seed: Any) -> int:
    if flag_seed is not None:
        return int(flag_seed)
    if file_seed is not None:
        if not isinstance(file_seed, int) or isinstance(file_seed, bool):
            raise ConfigError(f"seed must be an integer, got {file_seed!r}")
        return file_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return 0


def resolve_config(
    experiment: str,
    specs: Sequence[ParamSpec],
    flag_values: Mapping[str, Any],
    file_values: Mapping[str, Any] | None,
    flag_seed: int | None,
    file_seed: Any,
    output_format: str,
    output_path: str | None,
) -> ScenarioConfig:
    """Merge flag and file parameter values under strict key checking.

    ``flag_values`` holds raw flag strings for explicitly passed flags only;
    ``file_values`` holds the config file's params block.  Every key must
    match a ParamSpec name; every value goes through that ParamSpec's parser,
    and any error it raises comes back as one diagnostic naming the key.
    """
    by_name = {s.name: s for s in specs}
    resolved: dict[str, Any] = {s.name: s.default for s in specs}
    for source in (file_values or {}, flag_values):
        for key, raw in source.items():
            spec = by_name.get(key)
            if spec is None:
                raise ConfigError(f"unknown parameter {key!r} for experiment {experiment!r}")
            try:
                resolved[key] = spec.parse(raw)
            except (ConfigError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
    seed = _resolve_seed(flag_seed, file_seed)
    if seed < 0 or seed >= 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    if output_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {output_format!r}")
    return ScenarioConfig(
        experiment=experiment,
        seed=seed,
        params=resolved,
        output_format=output_format,
        output_path=output_path,
    )

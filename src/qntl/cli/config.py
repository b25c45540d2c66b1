"""Scenario configuration: value parsers, file loading, flag merging, strict validation.

Precedence for every setting is flags, then config file, then the QNTL_SEED
environment variable (seed only), then built-in defaults.  Parsing is
strict: an unknown key anywhere is a one-line error naming the key, never a
warning, so a typo cannot silently fall back to a default.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "ConfigError",
    "ParamSpec",
    "ScenarioConfig",
    "ENV_SEED",
    "parse_range",
    "as_int",
    "as_float",
    "float_list",
    "int_list",
    "names",
    "choice",
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
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric range component in {text!r}") from None
        for name, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                raise ConfigError(f"range {name} must be finite, got {value} in {text!r}")
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
    items = [p for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError("empty numeric list")
    try:
        return [float(p) for p in items]
    except ValueError:
        raise ConfigError(f"non-numeric list component in {text!r}") from None


# Value parsers: a flag arrives as a string, a config file value as JSON.

def as_int(raw: Any) -> int:
    if isinstance(raw, bool):
        raise ConfigError(f"expected an integer, got {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        if not raw.is_integer():  # also refuses inf and nan
            raise ConfigError(f"expected an integer, got {raw!r}")
        return int(raw)
    try:
        return int(str(raw).strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def as_float(raw: Any) -> float:
    """A number; +-inf pass (``--patience inf`` means no abandonment), NaN,
    which no range check can refuse, does not."""
    if isinstance(raw, bool):
        raise ConfigError(f"expected a number, got {raw!r}")
    try:
        value = float(raw if isinstance(raw, (int, float)) else str(raw).strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if math.isnan(value):
        raise ConfigError(f"expected a number, got {raw!r}")
    return value


def _numbers(raw: Any, item: Callable[[Any], Any]) -> list:
    """A JSON list, or :func:`parse_range` text; at least one value."""
    values = raw if isinstance(raw, (list, tuple)) else parse_range(str(raw))
    if not values:
        raise ConfigError("empty list")
    return [item(v) for v in values]


def float_list(raw: Any) -> list[float]:
    return _numbers(raw, as_float)


def int_list(raw: Any) -> list[int]:
    return _numbers(raw, as_int)


def names(
    plural: str, check: Callable[[str], Any], key: Callable[[Any], Any] | None = None
) -> Callable[[Any], list[str]]:
    """Parser for a list of distinct tokens: a JSON list or comma-separated text.

    ``check`` refuses a bad token.  Two tokens clash when they are equal, or,
    given ``key``, when it maps their checked values to the same key.
    """

    def parse(raw: Any) -> list[str]:
        if isinstance(raw, (list, tuple)):
            tokens = [str(v).strip() for v in raw]
        else:
            tokens = [p.strip() for p in str(raw).split(",") if p.strip()]
        if not tokens:
            raise ConfigError("empty list")
        checked = [check(t) for t in tokens]
        keys = tokens if key is None else [key(c) for c in checked]
        if len(set(keys)) != len(keys):
            raise ConfigError(f"duplicate {plural} in list")
        return tokens

    return parse


def choice(name: str, options: Sequence[str]) -> Callable[[Any], str]:
    def parse(raw: Any) -> str:
        token = str(raw).strip()
        if token not in options:
            listed = ", ".join(options)
            raise ConfigError(f"unknown {name} {token!r}; expected one of {listed}")
        return token

    return parse


@dataclass(frozen=True)
class ParamSpec:
    """One experiment parameter: its config key, parser, and default.

    ``parse`` maps the raw config value (string from a flag, or whatever the
    JSON file held) to the runtime value.  The runtime value's JSON form is
    what the report records, and it must re-parse to an equal value, which
    is what makes a report's embedded config re-runnable.
    """

    name: str
    parse: Callable[[Any], Any]
    default: Any
    help: str

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

    def echo(self) -> dict[str, Any]:
        """JSON-safe resolved-config block for embedding in the report."""
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "params": dict(sorted(self.params.items())),
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


def _resolve_seed(flag_seed: int | str | None, file_seed: Any) -> int:
    if flag_seed is None and file_seed is not None:
        if not isinstance(file_seed, int) or isinstance(file_seed, bool):
            raise ConfigError(f"seed must be an integer, got {file_seed!r}")
        return file_seed
    raw, source = flag_seed, "seed"
    if raw is None:
        raw, source = os.environ.get(ENV_SEED), ENV_SEED
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{source} must be an integer, got {raw!r}") from None


def resolve_config(
    experiment: str,
    specs: Sequence[ParamSpec],
    flag_values: Mapping[str, Any],
    file_values: Mapping[str, Any] | None,
    flag_seed: int | str | None,
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

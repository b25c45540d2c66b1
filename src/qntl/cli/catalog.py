"""Threat catalog: the review-controlled table of layered attacks.

The catalog lives in a packaged JSON data file whose bytes are pinned by a
checksum test, so any edit to an entry is a deliberate, reviewed change.
Entries are ordered top of the stack downward (Application, Network, Link,
Physical), and each carries the attack's resource requirements plus a
readiness grade with its one-line rationale.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources

from .config import ConfigError

__all__ = [
    "CatalogEntry",
    "LAYERS",
    "load_catalog",
    "filter_catalog",
    "format_catalog_table",
    "catalog_json",
]

LAYERS = ("Application", "Network", "Link", "Physical")
READINESS_LEVELS = ("Low", "Low to Moderate", "Moderate", "High")


@dataclass(frozen=True)
class CatalogEntry:
    layer: str
    attack: str
    requirements: str
    readiness: str
    rationale: str

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ValueError(f"unknown layer {self.layer!r}")
        if self.readiness not in READINESS_LEVELS:
            raise ValueError(f"unknown readiness level {self.readiness!r}")


def _data_bytes() -> bytes:
    # data/ ships as package data, not a subpackage; address it via the parent
    return resources.files("qntl").joinpath("data/threat_catalog.json").read_bytes()


def load_catalog() -> tuple[CatalogEntry, ...]:
    doc = json.loads(_data_bytes().decode("utf-8"))
    return tuple(CatalogEntry(**entry) for entry in doc["entries"])


def filter_catalog(
    entries: tuple[CatalogEntry, ...], layer: str | None
) -> tuple[CatalogEntry, ...]:
    if layer is None:
        return entries
    matches = [name for name in LAYERS if name.lower() == layer.lower()]
    if not matches:
        known = ", ".join(LAYERS)
        raise ConfigError(f"unknown layer {layer!r}; expected one of {known}")
    return tuple(e for e in entries if e.layer == matches[0])


def format_catalog_table(entries: tuple[CatalogEntry, ...]) -> str:
    """Fixed-width text table, one row per entry, in catalog order."""
    headers = ("Layer", "Attack", "Requirements", "Readiness")
    rows = [
        (e.layer, e.attack, e.requirements, f"{e.readiness}: {e.rationale}")
        for e in entries
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(4)
    ]
    def line(cells: tuple[str, str, str, str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    out = [line(headers), line(tuple("-" * w for w in widths))]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


def catalog_json(entries: tuple[CatalogEntry, ...]) -> str:
    return json.dumps([asdict(e) for e in entries], indent=2) + "\n"

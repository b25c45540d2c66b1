"""Per-layer tracing from outside the program.

Each layer's public functions are replaced, for the length of a traced pass,
by a wrapper that records a span (name, start, end, parent).  The wrapper
goes at the name the caller looks up: ``qkd`` and ``attacks`` bind
``measure_qubit`` with ``from .quantum import``, so the span for qubit
measurement patches ``qntl.qkd.measure_qubit`` and
``qntl.attacks.measure_qubit``, not ``qntl.quantum.measure_qubit``.

Spans stay in memory; per-layer busy time, self time (duration minus the time
its child spans cover) and counts are derived from them after the pass.

``SPANS`` also states, for each span, the workloads that call it.  After a
traced pass, :func:`self_check` fails when a span has no calls on one of its
workloads or has calls on any other, so a renamed function shows up as a
failed check instead of a silent zero.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

PHYSICS, NETWORK = "physics", "network"
ALL = frozenset({PHYSICS, NETWORK})

# (counters, result, args) -> None: physical counts taken at the boundary.
Observe = Callable[[Counter, Any, tuple], None]


def _clicks(counters: Counter, clicked: bool, args: tuple) -> None:
    counters["photonics.clicks"] += bool(clicked)


def _session(counters: Counter, session: Any, args: tuple) -> None:
    counters["qkd.rounds"] += session.n_rounds
    counters["qkd.sifted"] += session.sifted_count
    counters["qkd.final_bits"] += session.final_key_bits


def _amplify(counters: Counter, key: Any, args: tuple) -> None:
    counters["qkd.amplify.bits_in"] += len(args[0])


def _topology(counters: Counter, topology: Any, args: tuple) -> None:
    counters["topology.nodes"] += topology.n_nodes


def _dos(counters: Counter, result: Any, args: tuple) -> None:
    counters["dos.arrivals"] += result.legit_arrivals + result.attack_arrivals
    counters["dos.backlog_end"] += result.legit_still_queued + result.attack_still_queued
    counters["dos.conservation_failures"] += not result.conservation_ok()


@dataclass(frozen=True)
class Span:
    """One traced layer boundary.

    ``targets`` are ``module:attribute`` names; a dotted attribute is a
    classmethod on a class.  With ``factory`` set the targets build hooks and
    the span goes around each hook they return.  ``workloads`` is where the
    span must record calls; everywhere else it must record none.
    """

    name: str
    workloads: frozenset[str]
    targets: tuple[str, ...]
    observe: Observe | None = None
    factory: bool = False


SPANS: tuple[Span, ...] = (
    Span("quantum.measure", frozenset({PHYSICS}),
         ("qntl.qkd:measure_qubit", "qntl.qkd:measure_rotated", "qntl.attacks:measure_qubit")),
    Span("quantum.prepare", frozenset({PHYSICS}),
         ("qntl.qkd:encoded_qubit", "qntl.qkd:bell_pair", "qntl.attacks:encoded_qubit",
          "qntl.attacks:basis_state")),
    Span("quantum.gate", frozenset({PHYSICS}), ("qntl.attacks:apply_cnot",)),
    Span("photonics.emit", frozenset({PHYSICS}), ("qntl.qkd:emit_pulse",)),
    Span("photonics.transmit", frozenset({PHYSICS}), ("qntl.qkd:transmit",)),
    Span("photonics.detect", frozenset({PHYSICS}), ("qntl.qkd:detect",), _clicks),
    Span("attacks.hook", frozenset({PHYSICS}),
         ("qntl.attacks:intercept_resend", "qntl.attacks:probe_hook"), factory=True),
    Span("attacks.interlock", frozenset({PHYSICS}), ("qntl.attacks:interlock_exchange",)),
    Span("attacks.pns", frozenset({PHYSICS}),
         ("qntl.attacks:pns_experiment", "qntl.qkd:pns_transform_counts")),
    Span("attacks.trojan", frozenset({PHYSICS}), ("qntl.attacks:trojan_gain_experiment",)),
    Span("attacks.qec", frozenset({PHYSICS}), ("qntl.attacks:qec_bitflip_experiment",)),
    Span("qkd.session", frozenset({PHYSICS}), ("qntl.qkd:run_bb84", "qntl.qkd:run_e91"), _session),
    Span("qkd.sift", frozenset({PHYSICS}), ("qntl.qkd:sift_keys",)),
    Span("qkd.qber", frozenset({PHYSICS}), ("qntl.qkd:estimate_qber",)),
    Span("qkd.amplify", frozenset({PHYSICS}), ("qntl.qkd:privacy_amplify",), _amplify),
    Span("qkd.decoy", frozenset({PHYSICS}),
         ("qntl.qkd:simulate_decoy_transmissions", "qntl.qkd:decoy_state_analysis")),
    Span("stats.poisson_array", frozenset({PHYSICS}),
         ("qntl.qkd:poisson_sample_array", "qntl.attacks:poisson_sample_array")),
    Span("stats.histogram", frozenset({PHYSICS}), ("qntl.stats:Histogram.from_samples",)),
    Span("stats.zscore", frozenset({PHYSICS}), ("qntl.attacks:zscore_compare",)),
    Span("stats.chsh", frozenset({PHYSICS}), ("qntl.qkd:chsh_estimate",)),
    Span("stats.stream", ALL,
         ("qntl.cli.runners:stream", "qntl.qkd:stream", "qntl.network.topology:stream")),
    Span("topology.generate", frozenset({NETWORK}),
         ("qntl.network.experiments:generate_topology", "qntl.network:generate_topology"),
         _topology),
    Span("paths.count", frozenset({NETWORK}), ("qntl.network.experiments:count_viable_paths",)),
    Span("paths.hop_distance", frozenset({NETWORK}), ("qntl.network.experiments:hop_distance",)),
    Span("paths.route", frozenset({NETWORK}), ("qntl.network.experiments:route",)),
    Span("network.experiments", frozenset({NETWORK}),
         ("qntl.network:untrusted_node_experiment", "qntl.network:diversion_experiment")),
    Span("dos.simulate", frozenset({NETWORK}), ("qntl.network:dos_simulate",), _dos),
    Span("cli.resolve", ALL, ("qntl.cli.config:resolve_config",)),
    Span("cli.format", ALL, ("qntl.cli.report:rows_to_csv",)),
)

# The runner span wraps every registry entry's ``run`` (see installed()).
RUNNER = "cli.runner"
TASK = "task"


class Tracer:
    """Span recorder for one traced pass; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Observe | None = None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(counters, result, args)
            return result

        return traced

    def totals(self) -> tuple[Counter, dict[str, float], dict[str, float]]:
        """Calls, busy seconds and self seconds per span name."""
        calls: Counter = Counter()
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child
        return calls, busy, own


def _owner(target: str) -> tuple[Any, str]:
    module, _, attr = target.partition(":")
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, name):
        raise AttributeError(f"trace target {target} does not exist")
    return owner, name


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch every span target for the duration of the block."""
    from qntl.cli import runners

    patches: list[tuple[Any, str, Any]] = []
    registry = dict(runners.EXPERIMENTS)
    try:
        for span in SPANS:
            for target in span.targets:
                owner, name = _owner(target)
                if isinstance(owner, type):
                    original = owner.__dict__[name]
                    replacement: Any = classmethod(
                        tracer.wrap(span.name, original.__func__, span.observe))
                elif span.factory:
                    original = getattr(owner, name)
                    replacement = _traced_factory(tracer, span, original)
                else:
                    original = getattr(owner, name)
                    replacement = tracer.wrap(span.name, original, span.observe)
                setattr(owner, name, replacement)
                patches.append((owner, name, original))
        for key, exp in registry.items():
            runners.EXPERIMENTS[key] = dataclasses.replace(exp, run=tracer.wrap(RUNNER, exp.run))
        yield
    finally:
        runners.EXPERIMENTS.update(registry)
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def _traced_factory(tracer: Tracer, span: Span, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def build(*args: Any, **kwargs: Any) -> Callable:
        return tracer.wrap(span.name, factory(*args, **kwargs), span.observe)

    return build


def self_check(workload: str, calls: Counter) -> list[str]:
    """Spans whose call count contradicts the prediction for this workload."""
    failures = []
    for name, workloads in [(s.name, s.workloads) for s in SPANS] + [(RUNNER, ALL)]:
        if workload in workloads and calls[name] == 0:
            failures.append(f"span {name} recorded no calls on {workload}")
        elif workload not in workloads and calls[name] > 0:
            failures.append(f"span {name} recorded {calls[name]} calls on {workload}, "
                            "where none are predicted")
    return failures


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, decay_evaluations: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass, keyed by its name."""
    calls, busy, own = tracer.totals()
    c = tracer.counters
    return {
        "quantum.measure.calls": calls["quantum.measure"],
        "quantum.measure.s": busy["quantum.measure"],
        "quantum.us_per_measure": 1e6 * _per(busy["quantum.measure"], calls["quantum.measure"]),
        "quantum.prepare.calls": calls["quantum.prepare"],
        "quantum.prepare.s": busy["quantum.prepare"],
        "quantum.gate.s": busy["quantum.gate"],
        "photonics.emit.calls": calls["photonics.emit"],
        "photonics.emit.s": busy["photonics.emit"],
        "photonics.transmit.s": busy["photonics.transmit"],
        "photonics.detect.s": busy["photonics.detect"],
        "photonics.click_ratio": _per(c["photonics.clicks"], calls["photonics.emit"]),
        "attacks.hook.calls": calls["attacks.hook"],
        "attacks.hook.s": busy["attacks.hook"],
        "attacks.interlock.calls": calls["attacks.interlock"],
        "attacks.interlock.s": busy["attacks.interlock"],
        "attacks.pns.s": busy["attacks.pns"],
        "attacks.trojan.s": busy["attacks.trojan"],
        "attacks.qec.s": busy["attacks.qec"],
        "qkd.session.calls": calls["qkd.session"],
        "qkd.session.s": busy["qkd.session"],
        "qkd.session.self_s": own["qkd.session"],
        "qkd.sift.s": busy["qkd.sift"],
        "qkd.qber.s": busy["qkd.qber"],
        "qkd.amplify.s": busy["qkd.amplify"],
        "qkd.amplify.bits_in": c["qkd.amplify.bits_in"],
        "qkd.sifted_ratio": _per(c["qkd.sifted"], c["qkd.rounds"]),
        "qkd.key_ratio": _per(c["qkd.final_bits"], c["qkd.sifted"]),
        "qkd.decoy.s": busy["qkd.decoy"],
        "stats.poisson_array.calls": calls["stats.poisson_array"],
        "stats.poisson_array.s": busy["stats.poisson_array"],
        "stats.histogram.s": busy["stats.histogram"],
        "stats.zscore.s": busy["stats.zscore"],
        "stats.chsh.s": busy["stats.chsh"],
        "stats.stream.calls": calls["stats.stream"],
        "topology.generate.calls": calls["topology.generate"],
        "topology.generate.s": busy["topology.generate"],
        "topology.nodes": c["topology.nodes"],
        "paths.count.calls": calls["paths.count"],
        "paths.count.s": busy["paths.count"],
        "paths.hop_distance.calls": calls["paths.hop_distance"],
        "paths.hop_distance.s": busy["paths.hop_distance"],
        "paths.route.calls": calls["paths.route"],
        "paths.route.s": busy["paths.route"],
        "paths.bfs_ratio": _per(calls["paths.count"], decay_evaluations),
        "network.experiments.self_s": own["network.experiments"],
        "dos.simulate.calls": calls["dos.simulate"],
        "dos.simulate.s": busy["dos.simulate"],
        "dos.arrivals": c["dos.arrivals"],
        "dos.us_per_arrival": 1e6 * _per(busy["dos.simulate"], c["dos.arrivals"]),
        "dos.backlog_end": c["dos.backlog_end"],
        "dos.conservation_failures": c["dos.conservation_failures"],
        "cli.resolve.s": busy["cli.resolve"],
        "cli.runner.self_s": own[RUNNER],
        "cli.format.s": busy["cli.format"],
    }


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if ".us_per_" in metric:
        return "us"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bits_in"):
        return "bits"
    return "count"


def write_spans(path: Any, spans: Sequence[tuple[str, float, float, int] | None]) -> None:
    """One CSV line per span: index, name, start and end in microseconds
    from the first span's start, and the parent's index (-1 for a root)."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_us,end_us,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},{parent}\n")

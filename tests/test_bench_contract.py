"""The bench tracer's contract with the package.

``bench/tracing.py`` wraps functions by ``module:attribute`` name for a
traced pass, and its self-check fails a span that records no calls on a
workload that should call it.  A rename, or a change that takes the last
caller off a traced name, would otherwise only show up in a traced bench
run; here it fails the unit tests.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from qntl.photonics import Detector
from qntl.qkd import detect
from qntl.stats import stream

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """Load ``bench/<name>.py`` under its bare name, the name by which
    ``bench/run.py`` imports its siblings, so they resolve to this copy."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_to_a_callable():
    tracing = load_bench("tracing")
    for span in tracing.SPANS:
        for target in span.targets:
            owner, name = tracing._owner(target)
            assert callable(getattr(owner, name)), target


def test_detect_returns_a_python_bool():
    # The tracer's click counter adds bool(detect(...)) per call.
    rng = stream(0, "tracer-contract")
    for photons, detector in [(0, Detector()), (3, Detector()), (2, Detector(0.4, 0.1))]:
        assert type(detect(photons, detector, rng.random())) is bool


class UnitReference:
    """Stands in for the host-speed reference: this pass is not timed."""

    def seconds(self):
        return 1.0


@pytest.mark.parametrize("workload", ["physics", "network"])
def test_traced_pass_passes_the_span_self_check(workload):
    tracing = load_bench("tracing")
    workloads = load_bench("workloads")
    run = load_bench("run")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = run.run_pass(workloads.WORKLOADS[workload], 1, UnitReference(), tracer)
    assert result.failures == {}
    assert tracing.self_check(workload, tracer.totals()[0]) == []

"""The names the bench tracer patches must exist in the package.

``bench/tracing.py`` wraps functions by ``module:attribute`` name for a
traced pass.  A rename would otherwise only show up as a failed span
self-check in a traced bench run; here it fails the unit tests.
"""
import importlib.util
import sys
from pathlib import Path

from qntl.photonics import Detector
from qntl.qkd import detect
from qntl.stats import stream

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_to_a_callable():
    tracing = load_tracing()
    for span in tracing.SPANS:
        for target in span.targets:
            owner, name = tracing._owner(target)
            assert callable(getattr(owner, name)), target


def test_detect_returns_a_python_bool():
    # The tracer's click counter adds bool(detect(...)) per call.
    rng = stream(0, "tracer-contract")
    for photons, detector in [(0, Detector()), (3, Detector()), (2, Detector(0.4, 0.1))]:
        assert type(detect(photons, detector, rng)) is bool

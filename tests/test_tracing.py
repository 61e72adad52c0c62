"""The benchmark tracer's coupling to the library: every name it wraps must
resolve, and the iterations it reads off the spans must be the pursuit's."""

import importlib.util
import os

import numpy as np

from sparsesep import omp
from sparsesep.dictionaries import haar2d, sinusoid2d

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_name_resolves():
    with tracing.patched(lambda name, fn, annotate: None):
        pass


def test_traced_pursuit_iterations_match_report():
    rng = np.random.default_rng(0)
    sys = omp.StackedSystem(haar2d(3), sinusoid2d(8, 2, True),
                            tuple(rng.standard_normal(64) for _ in range(2)))
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrap):
        _, report = omp.omp_block(sys, omp.OmpConfig(30))
    assert report.iterations == 30
    assert tracing.layer_metrics(tracer.spans, 1, [])["omp.iterations"] == report.iterations
    (pursuit,) = [i for i, s in enumerate(tracer.spans) if s["name"] == "omp.omp_block"]
    # The tracer times one iteration between consecutive loop tops, each
    # marked by the pursuit's one synthesize_batch call.
    tops = [s for s in tracer.spans if s["parent"] == pursuit and s["name"] == "dictionaries.synthesize_batch"]
    assert len(tops) == report.iterations + 1

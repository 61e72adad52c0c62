"""Per-layer measurement from outside the program.

The tracer wraps the public functions of each ``sparsesep`` module and
patches them in where callers look them up: every ``sparsesep`` module
attribute bound to the original function (``sparsesep.qpat.solve_diffusion``
as well as ``sparsesep.pde.solve_diffusion``), and the ``Dictionary`` methods
on the class.  Each call records a span (name, start, end, parent span, and
a few annotations such as the dictionary kind or the grid side); spans stay
in memory and are written out once the run ends.

The layers are the modules.  ``grid``, ``diagnostics``, ``cli`` and
``errors`` are not measured: containers, off the reconstruction path,
argument parsing and exception types.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

from sparsesep import dictionaries, io, omp, pde, qpat, tv

DICT_METHODS = ("analyze", "synthesize", "analyze_batch", "synthesize_batch")
PURSUITS = ("omp.omp_block", "omp.omp_block_penalized")
PDE_CALLS = ("pde.solve_diffusion", "pde.integrate_gradient_field", "pde.recover_log_D", "pde.recover_mu")
#: Active-set sizes at which one greedy iteration is timed (window +-10%).
ITER_BINS = (50, 500, 1000, 1700)


def _kind(args, result):
    return {"kind": args[0].kind}


def _pursuit(args, result):
    system, report = args[0], result[1]
    shared_lo = system.A_f.m + system.N * system.A_g.m
    return {"iterations": int(report.iterations),
            "forced": int(len(report.selected) - report.iterations),
            "ratio_atoms": int(np.count_nonzero(report.selected >= shared_lo))}


def _problem_side(args, result):
    return {"d": args[0].side}


def _array_side(args, result):
    return {"d": args[0].shape[0]}


def _rg2_bytes(grid):
    return {"bytes": 16 + 8 * grid.side * grid.side}


# (module, function name, span name, annotation)
FUNCTIONS = (
    (omp, "omp_block", "omp.omp_block", _pursuit),
    (omp, "omp_block_penalized", "omp.omp_block_penalized", _pursuit),
    (pde, "solve_diffusion", "pde.solve_diffusion", _problem_side),
    (pde, "integrate_gradient_field", "pde.integrate_gradient_field", _array_side),
    (pde, "recover_log_D", "pde.recover_log_D", None),
    (pde, "recover_mu", "pde.recover_mu", None),
    (qpat, "make_qpat_problem", "qpat.make_qpat_problem", None),
    (qpat, "synthesize_data", "qpat.synthesize_data", None),
    (qpat, "reconstruct_gamma1", "qpat.reconstruct_gamma1", None),
    (qpat, "reconstruct_gammavar", "qpat.reconstruct_gammavar", None),
    (tv, "tv_denoise", "tv.tv_denoise", None),
    (io, "write_rg2", "io.write_rg2", lambda args, result: _rg2_bytes(args[1])),
    (io, "read_rg2", "io.read_rg2", lambda args, result: _rg2_bytes(result)),
)


@contextlib.contextmanager
def patched(replace):
    """Swap every wrapped function for ``replace(span_name, fn, annotate)``
    wherever a ``sparsesep`` module binds it; restore all on exit."""
    undo = []
    try:
        Dictionary = dictionaries.Dictionary
        for method in DICT_METHODS:
            fn = Dictionary.__dict__[method]
            wrapper = replace(f"dictionaries.{method}", fn, _kind)
            if wrapper is not None:
                setattr(Dictionary, method, wrapper)
                undo.append((Dictionary, method, fn))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sparsesep" or name.startswith("sparsesep."))]
        for owner, attr, span_name, annotate in FUNCTIONS:
            fn = getattr(owner, attr)
            wrapper = replace(span_name, fn, annotate)
            if wrapper is None:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        undo.append((module, key, fn))
        yield
    finally:
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)


class Tracer:
    """Span recorder.  ``phase`` tags new spans: 0 for set-up, 1 for rounds.
    Annotations are added when a call returns; a call that raises has none."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = 0
        self._open: list[int] = []

    def wrap(self, name, fn, annotate):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "phase": self.phase}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if annotate is not None:
                span.update(annotate(args, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class AllocPeaks:
    """Peak traced allocation inside each pursuit, with no spans recorded."""

    def __init__(self):
        self.peaks_mb: list[float] = []

    def wrap(self, name, fn, annotate):
        if name not in PURSUITS:
            return None
        peaks = self.peaks_mb

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
                tracemalloc.stop()

        return measured


def _median_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans, n_rounds: int, alloc_peaks_mb) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced set-up and ``n_rounds``
    traced rounds.  Totals and counts are per pass (one set-up plus one
    round); ``*_ms`` figures are medians per call.  A layer the workload does
    not reach reads 0."""
    for s in spans:
        s["dur"] = s["end"] - s["start"]
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def per_pass(selected, value=lambda s: s["dur"]):
        setup = sum(value(s) for s in selected if s["phase"] == 0)
        rounds = sum(value(s) for s in selected if s["phase"] == 1)
        return setup + rounds / n_rounds

    m: dict[str, float] = {}
    dict_spans = named(*(f"dictionaries.{x}" for x in DICT_METHODS))
    m["dictionaries.s"] = per_pass(dict_spans)
    m["dictionaries.calls"] = per_pass(dict_spans, lambda s: 1)
    for kind, label in (("haar2d", "haar"), ("sinusoid2d", "sinusoid")):
        for direction in ("analyze", "synthesize"):
            durs = [s["dur"] for s in dict_spans
                    if s.get("kind") == kind and s["name"].split(".")[1].startswith(direction)]
            m[f"dictionaries.{label}.{direction}_ms"] = _median_ms(durs)

    pursuits = [(i, s) for i, s in enumerate(spans) if s["name"] in PURSUITS]
    m["omp.s"] = per_pass([s for _, s in pursuits])
    m["omp.self_s"] = m["omp.s"] - per_pass(
        [c for i, _ in pursuits for c in children.get(i, []) if c["name"].startswith("dictionaries.")])
    setup_durs = []
    iter_durs: dict[int, list[float]] = {k: [] for k in ITER_BINS}
    for i, s in pursuits:
        # The loop top of every greedy iteration synthesizes the g-blocks once.
        tops = [c["start"] for c in children.get(i, []) if c["name"] == "dictionaries.synthesize_batch"]
        if not tops:
            continue
        setup_durs.append(tops[0] - s["start"])
        for j, (a, b) in enumerate(zip(tops, tops[1:])):
            k = s.get("forced", 0) + j
            for center in ITER_BINS:
                if abs(k - center) <= 0.1 * center:
                    iter_durs[center].append(b - a)
    m["omp.setup_ms"] = _median_ms(setup_durs)
    for center in ITER_BINS:
        m[f"omp.iter_ms_k{center}"] = _median_ms(iter_durs[center])
    m["omp.iterations"] = per_pass([s for _, s in pursuits], lambda s: s.get("iterations", 0))
    m["omp.forced_atoms"] = per_pass([s for _, s in pursuits], lambda s: s.get("forced", 0))
    m["omp.peak_alloc_mb"] = max(alloc_peaks_mb, default=0.0)

    # Field integration runs inside recover_log_D; count it once.
    m["pde.s"] = per_pass([s for s in named(*PDE_CALLS)
                           if s["parent"] is None or not spans[s["parent"]]["name"].startswith("pde.")])
    solves = named("pde.solve_diffusion")
    m["pde.solves"] = per_pass(solves, lambda s: 1)
    integrations = named("pde.integrate_gradient_field")
    for d in (128, 256):
        m[f"pde.solve_ms_d{d}"] = _median_ms([s["dur"] for s in solves if s.get("d") == d])
        m[f"pde.integrate_ms_d{d}"] = _median_ms([s["dur"] for s in integrations if s.get("d") == d])
    m["pde.recover_mu_ms"] = _median_ms([s["dur"] for s in named("pde.recover_mu")])

    m["qpat.synth_s"] = per_pass(named("qpat.make_qpat_problem", "qpat.synthesize_data"))
    step1, step3, outer_rest = [], [], []
    for i, s in enumerate(spans):
        if s["name"] != "qpat.reconstruct_gammavar":
            continue
        kids = children.get(i, [])
        step1 += [c for c in kids if c["name"] == "omp.omp_block"]
        passes = [c for c in kids if c["name"] == "omp.omp_block_penalized"]
        step3 += passes
        # The outer passes start with the reference solves; nothing before
        # them in the pipeline solves the forward problem.
        first_solve = next((c["start"] for c in kids if c["name"] == "pde.solve_diffusion"), None)
        if first_solve is not None:
            outer_rest.append({"phase": s["phase"],
                               "dur": s["end"] - first_solve - sum(c["dur"] for c in passes)})
    m["qpat.step1_s"] = per_pass(step1)
    m["qpat.step3_s"] = per_pass(step3)
    m["qpat.outer_rest_s"] = per_pass(outer_rest)
    m["qpat.ratio_atoms"] = per_pass(step3, lambda s: s.get("ratio_atoms", 0))

    m["tv.denoise_ms"] = _median_ms([s["dur"] for s in named("tv.tv_denoise")])
    writes, reads = named("io.write_rg2"), named("io.read_rg2")
    m["io.write_rg2_ms"] = _median_ms([s["dur"] for s in writes])
    m["io.read_rg2_ms"] = _median_ms([s["dur"] for s in reads])
    m["io.bytes"] = per_pass(writes + reads, lambda s: s.get("bytes", 0))
    return m

"""Benchmark of sparsesep: one workload per process, checked outputs, JSON result.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload separate_small --seed 1 --seconds 15 --trace 0

``--workload all`` runs the four workloads one after another, each in its own
process, and prints one result line per workload.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run and writes its spans to
``benchmark/out/``.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for the workloads and the metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: Set-up is repeated this many times per run; setup_s uses the median.
SETUP_REPEATS = 3


class Ops:
    """Times each operation of a round and counts the ones that fail."""

    def __init__(self, errors):
        self.errors = errors
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except self.errors as exc:
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        finally:
            self.times.append(time.perf_counter() - start)


def run_rounds(workload, inputs, ops, seconds):
    """Whole cycles of rounds until ``seconds`` have passed (at least one).

    Returns the round times, the failed checks, and the worst value of each
    accuracy metric over the rounds whose operations all succeeded."""
    times, problems, accuracy = [], [], {}
    start = time.perf_counter()
    index = 0
    while True:
        failed_before = ops.failed
        t = time.perf_counter()
        outputs = workload.run_round(inputs, ops, index)
        times.append(time.perf_counter() - t)
        if ops.failed == failed_before:
            found, acc = workload.evaluate(inputs, outputs)
            problems += found
            keep_worst(accuracy, acc)
        index += 1
        if index % workload.cycle == 0 and time.perf_counter() - start >= seconds:
            return times, problems, accuracy


def keep_worst(accuracy, new):
    for key, value in new.items():
        accuracy[key] = max(accuracy.get(key, value), value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sparsesep", "__init__.py")):
        print(f"no sparsesep sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from all, {', '.join(names)}", file=sys.stderr)
        return 2
    # One process generates all the load, on one BLAS thread: the BLAS calls
    # here are small, and a second thread made pde_forward_inverse 24% slower
    # and twice as spread on 2 cores.  Set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)

    import numpy as np
    import workloads
    from sparsesep.errors import DomainError, SolverError, ValidationError

    import_s = time.perf_counter() - PROCESS_START

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"files-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = workloads.make(args.workload, scratch)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = workload.setup(args.seed)
            setup_times.append(time.perf_counter() - t)
        ops = Ops((ValidationError, DomainError, SolverError))
        if args.trace:
            problems, accuracy, metrics = traced_run(workload, inputs, ops, args)
        else:
            times, problems, accuracy = run_rounds(workload, inputs, ops, args.seconds)
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "wall_s": statistics.median(times),
                "op_p90_s": float(np.percentile(ops.times, 90)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **accuracy,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not accuracy:
        print("no round completed without a failed operation", file=sys.stderr)
        return 1
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Each workload in a process of its own, so that its peak memory is its
    own; prints one result line per workload, tagged with its name."""
    import subprocess

    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name} exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def traced_run(workload, inputs, ops, args):
    """A warm-up cycle, a traced set-up, then untraced and traced cycles in
    turn until ``args.seconds`` have passed, then one round measuring the peak
    allocation of each pursuit."""
    import tracing

    _, problems, accuracy = run_rounds(workload, inputs, ops, 0.0)
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrap):
        traced_inputs = workload.setup(args.seed)
    tracer.phase = 1
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        times, found, acc = run_rounds(workload, inputs, ops, 0.0)
        untraced += times
        problems += found
        keep_worst(accuracy, acc)
        with tracing.patched(tracer.wrap):
            times, found, acc = run_rounds(workload, traced_inputs, ops, 0.0)
        traced += times
        problems += found
        keep_worst(accuracy, acc)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))

    alloc = tracing.AllocPeaks()
    if any(s["name"] in tracing.PURSUITS for s in tracer.spans):
        with tracing.patched(alloc.wrap):
            workload.run_round(inputs, ops, 0)
    layers = tracing.layer_metrics(tracer.spans, len(traced), alloc.peaks_mb)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return problems, accuracy, layers


if __name__ == "__main__":
    sys.exit(main())

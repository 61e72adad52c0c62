"""Command-line surface.

Subcommands: ``phantom``, ``dict info``, ``separate``, ``diagnose``,
``solve``, ``tv``, ``qpat-gamma1``, ``qpat-gammavar`` plus the conversion
utilities ``export-pgm``, ``rg2-to-csv`` and ``csv-to-rg2``.

Exit codes: 0 success, 1 validation error (bad arguments, malformed config
or input files), 2 numerical failure (iterative solver stall, degenerate
ratio gradients).  All randomness flows from the single configured seed and
all file writes are atomic, so a command is a pure function of its inputs.

Dictionaries on the command line use compact descriptors, e.g.
``haar2d:J=7``, ``sinusoid2d:d=128,L=15,constant=1``, ``identity:n=256``,
``fourier1d:n=256``.

Pipeline configs are plain ``key=value`` text (one pair per line, ``#``
comments); unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from io import StringIO

import numpy as np

from . import dictionaries as dicts
from . import qpat
from .diagnostics import cs2_probe, dictionary_aligned_probes, random_sparse_probes
from .errors import SolverError, ValidationError
from .grid import Grid2, MeasurementSet
from .io import _atomic_write, read_csv_grid, read_rg2, write_csv_grid, write_pgm16, write_rg2
from .omp import OmpConfig, StackedSystem, omp_block
from .pde import DiffusionProblem, solve_diffusion
from .tv import TvConfig, tv_denoise


# ---------------------------------------------------------------------------
# Dictionary descriptors

def parse_dict_spec(spec: str) -> dicts.Dictionary:
    kind, _, rest = spec.partition(":")
    params: dict[str, int] = {}
    if rest:
        for pair in rest.split(","):
            key, _, value = pair.partition("=")
            if not value:
                raise ValidationError(f"malformed dictionary parameter {pair!r} in {spec!r}")
            if key.strip() in params:
                raise ValidationError(f"duplicate dictionary parameter {key.strip()!r} in {spec!r}")
            try:
                params[key.strip()] = int(value)
            except ValueError as exc:
                raise ValidationError(f"non-integer dictionary parameter {pair!r}") from exc
    try:
        if kind == "haar2d":
            D = dicts.haar2d(params.pop("J"))
        elif kind == "sinusoid2d":
            D = dicts.sinusoid2d(params.pop("d"), params.pop("L"), bool(params.pop("constant", 0)))
        elif kind in ("identity", "fourier1d"):
            D = getattr(dicts, kind)(params.pop("n"))
        else:
            raise ValidationError(f"unknown dictionary kind {kind!r}")
    except KeyError as exc:
        raise ValidationError(f"dictionary spec {spec!r} is missing parameter {exc}") from exc
    if params:
        raise ValidationError(f"unknown dictionary parameter {', '.join(map(repr, params))} in {spec!r}")
    return D


# ---------------------------------------------------------------------------
# key=value run configs

_CONFIG_SCHEMA: dict[str, tuple] = {
    "phantom_kind": (str, None),
    "d": (int, None),
    "J": (int, None),
    "L": (int, 15),
    "include_constant": (int, 1),
    "n_measurements": (int, 5),
    "noise_level": (float, 0.0),
    "seed": (int, 0),
    "omp_iterations": (int, 1500),
    "omp_iterations_step1": (int, 2000),
    "epsilon": (float, 0.0),
    "outer_iterations": (int, 2),
    "tv_weight": (float, 0.0),
    "boundary_band": (int, 4),
    "out_dir": (str, None),
}


def parse_run_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key = key.strip()
            if key not in _CONFIG_SCHEMA:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            caster = _CONFIG_SCHEMA[key][0]
            try:
                values[key] = caster(value.strip())
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key}: {value.strip()!r}") from exc
            if caster is float and not math.isfinite(values[key]):
                raise ValidationError(f"{path}:{lineno}: {key} must be finite, got {value.strip()!r}")
    cfg = {key: default for key, (_, default) in _CONFIG_SCHEMA.items()}
    cfg.update(values)
    for key in ("phantom_kind", "d", "out_dir"):
        if cfg[key] is None:
            raise ValidationError(f"{path}: missing required config key {key!r}")
    d = cfg["d"]
    if d < 4 or d & (d - 1):
        raise ValidationError(f"{path}: d must be a power of two >= 4, got {d}")
    if cfg["J"] is None:
        cfg["J"] = d.bit_length() - 1
    elif 2 ** cfg["J"] != d:
        raise ValidationError(f"{path}: inconsistent J={cfg['J']} for d={d}")
    for key in ("noise_level", "epsilon", "tv_weight"):
        if not cfg[key] >= 0:
            raise ValidationError(f"{path}: {key} must be nonnegative")
    if not 1 <= cfg["n_measurements"] <= 5:
        raise ValidationError(f"{path}: n_measurements must lie in 1..5")
    return cfg


def _write_metrics(path: str, rows: list[tuple]) -> None:
    lines = ["stage,N,error,residual"]
    for stage, n, error, residual in rows:
        lines.append(f"{stage},{n},{float(error)!r},{float(residual)!r}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _write_residual_history(path: str, residuals) -> None:
    lines = ["iteration,residual"]
    lines += [f"{it},{float(r)!r}" for it, r in enumerate(residuals)]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_phantom(args) -> int:
    g = qpat.phantom(args.kind, args.d)
    write_rg2(args.out, g)
    return 0


def _cmd_dict_info(args) -> int:
    D = parse_dict_spec(args.spec)
    lines = [f"kind {D.kind}", f"n {D.n}", f"m {D.m}"]
    if args.versus:
        # Computed before anything is printed, so a failure leaves no output.
        lines.append(f"coherence {dicts.mutual_coherence(D, parse_dict_spec(args.versus))!r}")
    print("\n".join(lines))
    return 0


def _cmd_separate(args) -> int:
    if not math.isfinite(args.epsilon):
        raise ValidationError(f"epsilon must be finite, got {args.epsilon}")
    if args.epsilon < 0:
        raise ValidationError(f"--epsilon must be nonnegative, got {args.epsilon}")
    grids = [read_rg2(p) for p in args.inputs]
    ms = MeasurementSet(tuple(grids))
    A_f = parse_dict_spec(args.dict_f)
    A_g = parse_dict_spec(args.dict_g)
    d = ms.side
    if A_f.n != d * d:
        raise ValidationError(f"dictionary dimension {A_f.n} does not match {d}x{d} inputs")
    target = float(np.sqrt(ms.count) * args.epsilon) if args.epsilon else 0.0
    cfg = OmpConfig(max_iterations=args.iterations, residual_target=target)
    block, report = omp_block(StackedSystem(A_f, A_g, tuple(g.ravel() for g in grids)), cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    write_rg2(os.path.join(args.out_dir, "f.rg2"),
              Grid2(A_f.synthesize(block.y_f).reshape(d, d)))
    for i, y in enumerate(block.y_g, start=1):
        write_rg2(os.path.join(args.out_dir, f"g_{i}.rg2"),
                  Grid2(A_g.synthesize(y).reshape(d, d)))
    _write_residual_history(os.path.join(args.out_dir, "residuals.csv"), report.residuals)
    return 0


def _cmd_diagnose(args) -> int:
    A_f = parse_dict_spec(args.dict_f)
    A_g = parse_dict_spec(args.dict_g)
    rng = np.random.default_rng(args.seed)
    y_f_supp = rng.choice(A_f.m, size=min(args.kf, A_f.m), replace=False)
    y_g_supps = [rng.choice(A_g.m, size=min(args.lg, A_g.m), replace=False)
                 for _ in range(args.n_measurements)]
    probes = random_sparse_probes(A_f.m, args.n_probes, args.probe_sparsity, rng, scale=10 * args.d_const)
    probes += dictionary_aligned_probes(A_f, A_g, args.n_probes, rng, scale=10 * args.d_const)
    records = cs2_probe(A_f, A_g, y_f_supp, y_g_supps, probes, args.d_const)
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(["probe_id", "in_domain", "lhs", "rhs", "margin"])
    for r in records:
        writer.writerow([r.probe_id, int(r.in_domain), r.lhs, r.rhs, r.margin])
    _atomic_write(args.out, buf.getvalue().encode("utf-8"))
    return 0


def _cmd_solve(args) -> int:
    D = read_rg2(args.diffusion)
    mu = read_rg2(args.mu)
    kind, _, index = args.boundary.partition(":")
    if not index:
        raise ValidationError(f"boundary must look like gamma1:2, got {args.boundary!r}")
    phi = qpat.boundary_family(kind, int(index), D.side)
    u = solve_diffusion(DiffusionProblem(D, mu, phi))
    write_rg2(args.out, u)
    return 0


def _cmd_tv(args) -> int:
    g = read_rg2(args.input)
    out = tv_denoise(g, TvConfig(weight=args.weight, iterations=args.iterations))
    write_rg2(args.out, out)
    return 0


def _qpat_setup(cfg: dict, family: str, gamma: Grid2, D: Grid2):
    """The problem of the configured phantom mu with ``gamma``, ``D`` and the
    named trace family, and the (Haar, sinusoid) dictionary pair."""
    d = cfg["d"]
    mu = qpat.phantom(cfg["phantom_kind"], d)
    phis = [qpat.boundary_family(family, i, d) for i in range(1, cfg["n_measurements"] + 1)]
    problem = qpat.make_qpat_problem(gamma, mu, D, phis,
                                     noise_seed=cfg["seed"], noise_level=cfg["noise_level"])
    pair = (dicts.haar2d(cfg["J"]), dicts.sinusoid2d(d, cfg["L"], bool(cfg["include_constant"])))
    return problem, pair


def _cmd_qpat_gamma1(args) -> int:
    cfg = parse_run_config(args.config)
    ones = Grid2(np.ones((cfg["d"], cfg["d"])))
    problem, pair = _qpat_setup(cfg, "gamma1", ones, ones)
    ms = qpat.synthesize_data(problem)
    tv_weight = cfg["tv_weight"] or None
    rows = []
    for n in range(1, cfg["n_measurements"] + 1):
        res = qpat.reconstruct_gamma1(ms.subset(n), pair, cfg["omp_iterations"],
                                      epsilon=cfg["epsilon"] or None,
                                      tv_weight=tv_weight, mu_true=problem.mu_true,
                                      boundary_values=problem.phis[:n])
        rows.append(("gamma1", n, res.error, float(res.report.residuals[-1])))
        if n == cfg["n_measurements"]:
            os.makedirs(cfg["out_dir"], exist_ok=True)
            write_rg2(os.path.join(cfg["out_dir"], "mu.rg2"), res.mu)
            for i, u in enumerate(res.u, start=1):
                write_rg2(os.path.join(cfg["out_dir"], f"u_{i}.rg2"), u)
    write_rg2(os.path.join(cfg["out_dir"], "mu_true.rg2"), problem.mu_true)
    _write_metrics(os.path.join(cfg["out_dir"], "metrics.csv"), rows)
    return 0


def _cmd_qpat_gammavar(args) -> int:
    cfg = parse_run_config(args.config)
    d = cfg["d"]
    gamma = qpat.smooth_bumps(d, bumps=((0.40, 0.40, 0.18, 0.4),))
    D_true = qpat.smooth_bumps(d, bumps=((0.62, 0.64, 0.20, 0.5),))
    problem, pair = _qpat_setup(cfg, "gammavar", gamma, D_true)
    gcfg = qpat.GammaVarConfig(
        mu0=Grid2(np.ones((d, d))),
        anchor=((d // 2, d // 2), float(D_true.values[d // 2, d // 2])),
        budget_step1=cfg["omp_iterations_step1"],
        outer_iterations=cfg["outer_iterations"],
        boundary_band=cfg["boundary_band"],
        tv_weight=cfg["tv_weight"] or None,
    )
    res = qpat.reconstruct_gammavar(problem, pair, gcfg)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    write_rg2(os.path.join(out, "mu.rg2"), res.mu)
    write_rg2(os.path.join(out, "mu_baseline.rg2"), res.mu_baseline)
    write_rg2(os.path.join(out, "D.rg2"), res.D)
    for i, u in enumerate(res.u, start=1):
        write_rg2(os.path.join(out, f"u_{i}.rg2"), u)
    # The outer passes run no pursuit, so their rows carry no residual.
    rows = [("step1_mu", len(problem.H), res.mu_errors[0], float(res.report.residuals[-1]))]
    rows += [(f"iter{it}_mu", len(problem.H), err, 0.0)
             for it, err in enumerate(res.mu_errors[1:], start=1)]
    rows.append(("final_D", len(problem.H), res.D_errors[-1], 0.0))
    _write_metrics(os.path.join(out, "metrics.csv"), rows)
    return 0


def _cmd_export_pgm(args) -> int:
    write_pgm16(args.out, read_rg2(args.input))
    return 0


def _cmd_rg2_to_csv(args) -> int:
    write_csv_grid(args.out, read_rg2(args.input))
    return 0


def _cmd_csv_to_rg2(args) -> int:
    write_rg2(args.out, read_csv_grid(args.input))
    return 0


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsesep", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a phantom grid")
    p.add_argument("--kind", required=True,
                   choices=["convex_inclusions", "shepp_logan", "smooth_bumps"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_phantom)

    p = sub.add_parser("dict", help="dictionary utilities")
    dict_sub = p.add_subparsers(dest="dict_command", required=True)
    pi = dict_sub.add_parser("info", help="print kind, n, m and optional coherence")
    pi.add_argument("spec")
    pi.add_argument("versus", nargs="?", default=None)
    pi.set_defaults(handler=_cmd_dict_info)

    p = sub.add_parser("separate", help="block pursuit separation of RG2 measurements")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--dict-f", required=True)
    p.add_argument("--dict-g", required=True)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_separate)

    p = sub.add_parser("diagnose", help="probe the support-counting condition")
    p.add_argument("--dict-f", required=True)
    p.add_argument("--dict-g", required=True)
    p.add_argument("--kf", type=int, default=50)
    p.add_argument("--lg", type=int, default=20)
    p.add_argument("--n-measurements", type=int, default=3)
    p.add_argument("--n-probes", type=int, default=10)
    p.add_argument("--probe-sparsity", type=int, default=5)
    p.add_argument("--d-const", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("solve", help="forward diffusion solve")
    p.add_argument("--diffusion", required=True, help="RG2 file with D")
    p.add_argument("--mu", required=True, help="RG2 file with mu")
    p.add_argument("--boundary", required=True, help="family:index, e.g. gamma1:2")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("tv", help="total-variation denoising of an RG2 grid")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weight", type=float, required=True)
    p.add_argument("--iterations", type=int, default=100)
    p.set_defaults(handler=_cmd_tv)

    p = sub.add_parser("qpat-gamma1", help="constant-Gamma pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_qpat_gamma1)

    p = sub.add_parser("qpat-gammavar", help="variable-Gamma pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_qpat_gammavar)

    p = sub.add_parser("export-pgm", help="RG2 to 16-bit PGM with a scale sidecar")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_export_pgm)

    p = sub.add_parser("rg2-to-csv", help="RG2 to comma-separated rows")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_rg2_to_csv)

    p = sub.add_parser("csv-to-rg2", help="comma-separated rows to RG2")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_csv_to_rg2)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the validation code
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())

"""The four benchmark workloads, driven through the public API of ``sparsesep``.

A workload has a ``name``, a ``cycle`` and three methods:

* ``setup(seed)`` builds every input (dictionaries, phantoms, fields,
  synthetic data) and returns them; the program only ever sees these inputs.
* ``run_round(inputs, op, index)`` runs one round of timed operations, each
  through ``op(fn, *args)``, and returns their outputs.  ``cycle`` distinct
  rounds exist; round ``index`` uses inputs ``index % cycle``.
* ``evaluate(inputs, outputs)`` checks the outputs of one round and returns
  ``(problems, accuracy)``: a list of failed checks and the two accuracy
  metrics ``mu_err`` and ``aux_err``.

The program's modules are looked up at call time (``qpat.reconstruct_gamma1``
and so on), so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np

from sparsesep import dictionaries, io, omp, pde, qpat
from sparsesep.grid import Grid2

from checks import (
    ERROR_FLOOR,
    EXACT_TOL,
    RESIDUAL_TOL,
    five_point_residual,
    interior_error,
    relative_error,
    relative_log_error,
    rg2_round_trip_ok,
    separation_error,
    strictly_decreasing,
)


class Gamma1Sweep:
    """The paper's Example 1 (constant Gamma) at 64x64: criteria 5-6's
    phantom, illuminations, 17.6% noise and noise seed 2, at demo 4's size.

    The instance is frozen, so ``--seed`` does not change it: the trend
    checks are properties of this instance, and at 64x64 the N=3..5 errors
    move by about 10% between noise draws, more than the N-to-N steps.
    """

    name = "gamma1_sweep"
    cycle = 1
    d, J, L = 64, 6, 8
    budget = 800
    noise_level, noise_seed = 0.176, 2
    tv_weight = 0.02

    def setup(self, seed: int):
        d = self.d
        mu = qpat.convex_inclusions(d)
        ones = Grid2(np.ones((d, d)))
        phis = [qpat.boundary_family("gamma1", i, d) for i in range(1, 6)]
        problem = qpat.make_qpat_problem(ones, mu, ones, phis, noise_seed=self.noise_seed,
                                         noise_level=self.noise_level)
        ms = qpat.synthesize_data(problem)
        dicts = (dictionaries.haar2d(self.J), dictionaries.sinusoid2d(d, self.L, include_constant=True))
        return SimpleNamespace(mu=mu.values, u=[u.values for u in problem.u_true],
                               phis=phis, ms=ms, dicts=dicts)

    def run_round(self, x, op, index):
        out = {n: op(qpat.reconstruct_gamma1, x.ms.subset(n), x.dicts, self.budget,
                     boundary_values=x.phis[:n])
               for n in range(1, 6)}
        out["tv"] = op(qpat.reconstruct_gamma1, x.ms.subset(5), x.dicts, self.budget,
                       boundary_values=x.phis, tv_weight=self.tv_weight)
        return out

    def evaluate(self, x, out):
        errors = [relative_log_error(out[n].mu.values, x.mu) for n in range(1, 6)]
        tv_error = relative_log_error(out["tv"].mu.values, x.mu)
        problems = []
        if not strictly_decreasing(errors):
            problems.append(f"errors over N=1..5 do not strictly decrease: {errors}")
        if errors[-1] > 0.12:
            problems.append(f"N=5 error {errors[-1]:.4f} > 0.12")
        if tv_error > errors[-1]:
            problems.append(f"TV error {tv_error:.4f} worse than plain {errors[-1]:.4f}")
        u_error = max(relative_log_error(a.values, b) for a, b in zip(out[5].u, x.u))
        return problems, {"mu_err": errors[-1], "aux_err": u_error}


class GammaVar64:
    """The variable-Gamma pipeline on demo 5's instance (64x64, Haar J=6,
    sinusoids L=8 with the constant atom, step-1 budget 1500), with one outer
    pass of step-3 budget 300 instead of two of 800, so that a round takes
    ~9 s, not ~58 s.  The errors are those of demo 5's first pass; its second
    pass leaves them where they were.  The instance is frozen: moving the
    Gamma bump by up to 0.03 and its height by up to 10% moves the final mu
    error between 0.23 and 0.49."""

    name = "gammavar_64"
    cycle = 1
    d, J, L = 64, 6, 8
    band = 4

    def setup(self, seed: int):
        d = self.d
        mu = qpat.convex_inclusions(d)
        gamma = qpat.smooth_bumps(d, bumps=((0.40, 0.40, 0.18, 0.4),))
        D = qpat.smooth_bumps(d, bumps=((0.62, 0.64, 0.20, 0.5),))
        phis = [qpat.boundary_family("gammavar", i, d) for i in range(1, 6)]
        problem = qpat.make_qpat_problem(gamma, mu, D, phis)
        cfg = qpat.GammaVarConfig(
            mu0=Grid2(np.ones((d, d))),
            anchor=((d // 2, d // 2), float(D.values[d // 2, d // 2])),
            budget_step1=1500,
            budget_step3=300,
            outer_iterations=1,
            boundary_band=self.band,
        )
        dicts = (dictionaries.haar2d(self.J), dictionaries.sinusoid2d(d, self.L, include_constant=True))
        return SimpleNamespace(mu=mu.values, D=D.values, problem=problem, cfg=cfg, dicts=dicts)

    def run_round(self, x, op, index):
        return op(qpat.reconstruct_gammavar, x.problem, x.dicts, x.cfg)

    def evaluate(self, x, res):
        mu_err = relative_error(res.mu.values, x.mu)
        baseline = relative_error(res.mu_baseline.values, x.mu)
        D_err = interior_error(res.D.values, x.D, self.band)
        problems = []
        if not mu_err < baseline:
            problems.append(f"final mu error {mu_err:.4f} not below baseline {baseline:.4f}")
        if D_err > 0.05:
            problems.append(f"final D interior error {D_err:.4f} > 0.05")
        return problems, {"mu_err": mu_err, "aux_err": D_err}


class PdeForwardInverse:
    """No pursuit: forward model, diffusion and absorption recovery, RG2 I/O.

    Six cases per round, each of the three phantoms at 128 and at 256.  The
    seed draws the smooth D and Gamma bumps.  D varies only slightly between
    seeds, since its shape sets the recovery error the benchmark reports.
    """

    name = "pde_forward_inverse"
    cycle = 1
    sides = (128, 256)
    kinds = ("convex_inclusions", "shepp_logan", "smooth_bumps")
    band = 4

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        cases = []
        for d in self.sides:
            phis = [qpat.boundary_family("gammavar", i, d) for i in range(1, 6)]
            for kind in self.kinds:
                D_bump = (0.5 + rng.uniform(-0.03, 0.03), 0.5 + rng.uniform(-0.03, 0.03),
                          rng.uniform(0.19, 0.21), rng.uniform(0.43, 0.47))
                gamma_bump = (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                              rng.uniform(0.15, 0.25), rng.uniform(0.2, 0.5))
                D = qpat.smooth_bumps(d, bumps=(D_bump,))
                cases.append(SimpleNamespace(
                    d=d, kind=kind, phis=phis, D=D,
                    gamma=qpat.smooth_bumps(d, bumps=(gamma_bump,)),
                    mu=qpat.phantom(kind, d),
                    anchor=((d // 2, d // 2), float(D.values[d // 2, d // 2])),
                    paths=[os.path.join(self.scratch_dir, f"{name}_{kind}_{d}.rg2")
                           for name in ("D", "mu")]))
        return cases

    def _case(self, c):
        p = qpat.make_qpat_problem(c.gamma, c.mu, c.D, c.phis)
        u = p.u_true
        D_rec = pde.recover_log_D(u[0], u[3], u[4], c.anchor)
        mu_rec = pde.recover_mu(D_rec, list(u), boundary_band=self.band, mu_background=1.0)
        back = []
        for path, grid in zip(c.paths, (D_rec, mu_rec)):
            io.write_rg2(path, grid)
            back.append(io.read_rg2(path))
        return SimpleNamespace(u=u, D=D_rec, mu=mu_rec, back=back)

    def run_round(self, cases, op, index):
        return [op(self._case, c) for c in cases]

    def evaluate(self, cases, outs):
        problems = []
        mu_errs, D_errs = [], []
        for c, o in zip(cases, outs):
            tag = f"{c.kind} at {c.d}"
            h = 1.0 / (c.d - 1)
            for i, u in enumerate(o.u, start=1):
                res = five_point_residual(c.D.values, c.mu.values, u.values)
                if not res <= RESIDUAL_TOL:
                    problems.append(f"{tag}: u_{i} 5-point residual {res:.2e} > {RESIDUAL_TOL}")
            D_errs.append(interior_error(o.D.values, c.D.values, self.band))
            mu_errs.append(relative_error(o.mu.values, c.mu.values))
            # D is smooth, so its error is second order.  mu jumps, and the
            # O(1) error on a band O(h) wide at the jumps is O(sqrt(h)) in L2.
            if D_errs[-1] > 20.0 * h * h:
                problems.append(f"{tag}: D interior error {D_errs[-1]:.2e} > 20 h^2")
            if mu_errs[-1] > np.sqrt(h):
                problems.append(f"{tag}: mu error {mu_errs[-1]:.4f} > sqrt(h)")
            for path, grid, back in zip(c.paths, (o.D, o.mu), o.back):
                with open(path, "rb") as fh:
                    raw = fh.read()
                if not rg2_round_trip_ok(raw, grid.values, back.values):
                    problems.append(f"{tag}: RG2 round trip of {os.path.basename(path)} is not bit-exact")
        return problems, {"mu_err": max(mu_errs), "aux_err": max(D_errs)}


class SeparateSmall:
    """Short exact separations through ``omp_block`` at 64x64.

    f has 60 Haar atoms and each g_i 10 sinusoid atoms (no constant atom),
    coefficients of random sign and magnitude in [1, 2]; a round separates
    one instance for each N in (2, 3, 5), noise free, residual target
    1e-8 sqrt(N), budget 400.  The seed draws eight rounds of instances.
    """

    name = "separate_small"
    cycle = 8
    d, J, L = 64, 6, 8
    n_f, n_g = 60, 10
    measurements = (2, 3, 5)
    budget = 400

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        A_f = dictionaries.haar2d(self.J)
        A_g = dictionaries.sinusoid2d(self.d, self.L, include_constant=False)

        def signal(A, k):
            y = np.zeros(A.m)
            y[rng.choice(A.m, size=k, replace=False)] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(1.0, 2.0, size=k)
            return A.synthesize(y)

        rounds = []
        for _ in range(self.cycle):
            instances = []
            for N in self.measurements:
                f = signal(A_f, self.n_f)
                gs = [signal(A_g, self.n_g) for _ in range(N)]
                instances.append(SimpleNamespace(
                    f=f, gs=gs,
                    system=omp.StackedSystem(A_f, A_g, tuple(f + g for g in gs)),
                    cfg=omp.OmpConfig(max_iterations=self.budget, residual_target=1e-8 * np.sqrt(N))))
            rounds.append(instances)
        return SimpleNamespace(A_f=A_f, A_g=A_g, rounds=rounds)

    def run_round(self, x, op, index):
        instances = x.rounds[index % self.cycle]
        return instances, [op(omp.omp_block, inst.system, inst.cfg) for inst in instances]

    def evaluate(self, x, out):
        instances, results = out
        problems = []
        f_err = g_err = ERROR_FLOOR
        for inst, (block, report) in zip(instances, results):
            f_hat = x.A_f.synthesize(block.y_f)
            g_hats = [x.A_g.synthesize(y) for y in block.y_g]
            err = separation_error(f_hat, g_hats, inst.f, inst.gs)
            if not err <= EXACT_TOL:
                problems.append(f"N={len(inst.gs)}: separation error {err:.2e} > {EXACT_TOL} "
                                f"({report.stop_reason} after {report.iterations} iterations)")
                continue
            f_err = max(f_err, relative_error(f_hat, inst.f))
            g_err = max([g_err] + [relative_error(a, b) for a, b in zip(g_hats, inst.gs)])
        return problems, {"mu_err": f_err, "aux_err": g_err}


def make(name: str, scratch_dir: str):
    """The workload called ``name``; ``scratch_dir`` holds files it writes."""
    if name == PdeForwardInverse.name:
        return PdeForwardInverse(scratch_dir)
    for cls in (Gamma1Sweep, GammaVar64, SeparateSmall):
        if cls.name == name:
            return cls()
    raise KeyError(name)


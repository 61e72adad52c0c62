"""End-to-end reconstruction pipelines for internal data H_i = Gamma*mu*u_i.

Constant-Gamma pipeline: take logs, separate the shared log-absorption from
the per-illumination log-intensities with the block pursuit, exponentiate.

Variable-Gamma pipeline: the shared part now carries log(Gamma*mu), which is
not enough to identify mu, so the diffusion model is brought in.  After an
initial separation (step 1) and a diffusion-coefficient recovery from a
gradient-independent triple of measurements (step 2), each outer pass
(3a) solves the forward problem with the current iterates (D, max(mu, 0)) for
every illumination and takes those solutions as the intensities,
(3b) refreshes the diffusion coefficient from the data ratios on the base
solution, and (3c) refreshes the absorption by the averaged pointwise formula.
No pass separates again: single-wavelength diffusive data do not determine
D, mu and Gamma together (Bal & Ren 2011, Inverse Problems 27, 075003), and
Haar sparsity cannot tell on which side a smooth Gamma belongs.

Phantom value ranges are illustrative defaults; only positivity matters to
the pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionaries import Dictionary
from .errors import DomainError, ValidationError
from .grid import Grid2, MeasurementSet, CoeffBlock, relative_log_error
from .omp import OmpConfig, OmpReport, StackedSystem, omp_block
from .pde import (
    DiffusionProblem,
    ratio_independence,
    recover_log_D,
    recover_mu,
    ring_coords,
    ring_length,
    solve_diffusion,
    trace_from_function,
)
from .tv import TvConfig, tv_denoise

# ---------------------------------------------------------------------------
# Phantoms

DEFAULT_INCLUSIONS = (
    ("disk", 0.32, 0.66, 0.080, 2.0),
    ("ellipse", 0.68, 0.60, 0.105, 0.060, 30.0, 2.0),
    ("rect", 0.45, 0.28, 0.070, 0.050, 2.0),
)

DEFAULT_BUMPS = (
    (0.35, 0.60, 0.16, 0.5),
    (0.70, 0.30, 0.13, 0.35),
)

# Ten-ellipse head phantom, high-contrast variant: (delta, a, b, x0, y0, deg).
_SHEPP_ELLIPSES = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6050, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)


def _check_dyadic(d: int) -> None:
    if d < 4 or d & (d - 1):
        raise ValidationError(f"phantom side must be a power of two >= 4, got {d}")


def _pixel_coords(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(X1, X2) over the unit square; X1 varies along columns."""
    ax = np.arange(d) / (d - 1.0)
    return np.meshgrid(ax, ax)


def convex_inclusions(d: int, background: float = 1.0, inclusions=DEFAULT_INCLUSIONS) -> Grid2:
    """Homogeneous background with constant convex inclusions."""
    _check_dyadic(d)
    X1, X2 = _pixel_coords(d)
    img = np.full((d, d), float(background))
    for spec in inclusions:
        kind = spec[0]
        if kind == "disk":
            _, cx, cy, r, val = spec
            mask = (X1 - cx) ** 2 + (X2 - cy) ** 2 <= r ** 2
        elif kind == "ellipse":
            _, cx, cy, a, b, deg, val = spec
            t = np.deg2rad(deg)
            xr = (X1 - cx) * np.cos(t) + (X2 - cy) * np.sin(t)
            yr = -(X1 - cx) * np.sin(t) + (X2 - cy) * np.cos(t)
            mask = (xr / a) ** 2 + (yr / b) ** 2 <= 1.0
        elif kind == "rect":
            _, cx, cy, hx, hy, val = spec
            mask = (np.abs(X1 - cx) <= hx) & (np.abs(X2 - cy) <= hy)
        else:
            raise ValidationError(f"unknown inclusion kind {kind!r}")
        img[mask] = val
    return Grid2(img)


def shepp_logan(d: int, lo: float = 1.0, hi: float = 2.0) -> Grid2:
    """Ten-ellipse head phantom rescaled to the strictly positive range [lo, hi]."""
    _check_dyadic(d)
    if not 0 < lo < hi:
        raise ValidationError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    ax = np.linspace(-1.0, 1.0, d)
    X, Y = np.meshgrid(ax, ax)
    img = np.zeros((d, d))
    for delta, a, b, x0, y0, deg in _SHEPP_ELLIPSES:
        t = np.deg2rad(deg)
        xr = (X - x0) * np.cos(t) + (Y - y0) * np.sin(t)
        yr = -(X - x0) * np.sin(t) + (Y - y0) * np.cos(t)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += delta
    vmin, vmax = img.min(), img.max()
    img = lo + (img - vmin) * (hi - lo) / (vmax - vmin)
    return Grid2(img)


def smooth_bumps(d: int, background: float = 1.0, bumps=DEFAULT_BUMPS) -> Grid2:
    """Positive Gaussian bumps over a constant background."""
    _check_dyadic(d)
    X1, X2 = _pixel_coords(d)
    img = np.full((d, d), float(background))
    for cx, cy, sigma, amp in bumps:
        img += amp * np.exp(-((X1 - cx) ** 2 + (X2 - cy) ** 2) / (2.0 * sigma ** 2))
    return Grid2(img)


def phantom(kind: str, d: int, **params) -> Grid2:
    makers = {
        "convex_inclusions": convex_inclusions,
        "shepp_logan": shepp_logan,
        "smooth_bumps": smooth_bumps,
    }
    if kind not in makers:
        raise ValidationError(f"unknown phantom kind {kind!r}; choose from {sorted(makers)}")
    return makers[kind](d, **params)


# ---------------------------------------------------------------------------
# Boundary families

_GAMMA1_PHIS = (
    lambda x1, x2: np.ones_like(x1),
    lambda x1, x2: 1.0 - np.sin(2.0 * np.pi * x1) / 4.0,
    lambda x1, x2: 1.0 - np.sin(2.0 * np.pi * x2) / 4.0,
    lambda x1, x2: 1.0 - np.cos(2.0 * np.pi * x2) / 4.0,
    lambda x1, x2: 1.0 - np.cos(2.0 * np.pi * x1) / 4.0,
)

_GAMMAVAR_PHIS = (
    lambda x1, x2: np.ones_like(x1),
    lambda x1, x2: 1.0 - np.sin(2.0 * np.pi * x1) / 8.0,
    lambda x1, x2: 1.0 - np.sin(2.0 * np.pi * x2) / 8.0,
    lambda x1, x2: x1 / 4.0 + 7.0 / 8.0,
    lambda x1, x2: x2 / 4.0 + 7.0 / 8.0,
)


def boundary_family(kind: str, i: int, d: int) -> np.ndarray:
    """The i-th (1-based, i in 1..5) Dirichlet trace of the named family."""
    families = {"gamma1": _GAMMA1_PHIS, "gammavar": _GAMMAVAR_PHIS}
    if kind not in families:
        raise ValidationError(f"unknown boundary family {kind!r}")
    if not 1 <= i <= 5:
        raise ValidationError(f"boundary index must lie in 1..5, got {i}")
    return trace_from_function(d, families[kind][i - 1])


# ---------------------------------------------------------------------------
# Problem synthesis

@dataclass(frozen=True)
class QpatProblem:
    """Ground-truth fields, boundary data and the synthesized internal data."""

    gamma: Grid2
    mu_true: Grid2
    D_true: Grid2
    phis: tuple[np.ndarray, ...]
    H: tuple[Grid2, ...]
    u_true: tuple[Grid2, ...]
    noise_seed: int = 0
    noise_level: float = 0.0

    @property
    def N(self) -> int:
        return len(self.H)

    @property
    def side(self) -> int:
        return self.mu_true.side


def make_qpat_problem(
    gamma: Grid2,
    mu: Grid2,
    D: Grid2,
    phis,
    noise_seed: int = 0,
    noise_level: float = 0.0,
) -> QpatProblem:
    """Solve the diffusion model per boundary trace and form H_i = Gamma*mu*u_i."""
    for name, g in (("gamma", gamma), ("mu", mu), ("D", D)):
        if np.any(g.values <= 0):
            raise DomainError(f"{name} must be strictly positive")
    if not noise_level >= 0:
        raise ValidationError("noise_level must be nonnegative")
    phis = tuple(np.asarray(t, dtype=np.float64) for t in phis)
    us = []
    Hs = []
    for t in phis:
        u = solve_diffusion(DiffusionProblem(D, mu, t))
        if np.any(u.values <= 0):
            raise DomainError("diffusion solution lost positivity")
        us.append(u)
        Hs.append(Grid2(gamma.values * mu.values * u.values))
    return QpatProblem(gamma, mu, D, phis, tuple(Hs), tuple(us),
                       noise_seed=int(noise_seed), noise_level=float(noise_level))


def synthesize_data(p: QpatProblem) -> MeasurementSet:
    """Log-domain measurements h_i = log H_i + n_i.

    The white Gaussian noise is drawn per measurement in index order from one
    generator seeded with ``noise_seed`` and rescaled so that
    ||n_i|| / ||log H_i|| equals ``noise_level`` exactly; eta records the
    largest noise norm.
    """
    rng = np.random.default_rng(p.noise_seed)
    out = []
    eta = 0.0
    for H in p.H:
        if np.any(H.values <= 0):
            raise DomainError("internal data must be strictly positive")
        h = np.log(H.values)
        if p.noise_level > 0:
            g = rng.standard_normal(h.shape)
            n = (p.noise_level * np.linalg.norm(h) / np.linalg.norm(g)) * g
            eta = max(eta, float(np.linalg.norm(n)))
            h = h + n
        out.append(Grid2(h))
    return MeasurementSet(tuple(out), eta=eta)


# ---------------------------------------------------------------------------
# Constant-Gamma reconstruction

@dataclass(frozen=True)
class Gamma1Result:
    mu: Grid2
    u: tuple[Grid2, ...]
    block: CoeffBlock
    report: OmpReport
    error: float | None


def reconstruct_gamma1(
    ms: MeasurementSet,
    dicts: tuple[Dictionary, Dictionary],
    budget: int,
    epsilon: float | None = None,
    tv_weight: float | None = None,
    tv_iterations: int = 100,
    mu_true: Grid2 | None = None,
    boundary_values=None,
) -> Gamma1Result:
    """Separate log mu from the log intensities and exponentiate.

    ``epsilon`` (default: the measurement set's combined tolerance, if any)
    enters the solver as the aggregate target sqrt(N)*epsilon; with neither
    given the pursuit runs to its iteration budget.  ``tv_weight`` switches
    on total-variation preprocessing of each measurement.

    The split is determined by the data only up to one additive constant in
    the logs (any constant moved between log mu and every log u_i leaves all
    measurements unchanged, and both dictionaries can express constants).
    When the illumination traces are known, passing them as
    ``boundary_values`` (one ring vector per measurement, see
    :func:`sparsesep.pde.ring_coords`) pins that gauge by matching each
    reconstructed log u_i to log phi_i in the mean over the boundary ring.
    """
    A_f, A_g = dicts
    d = ms.side
    if A_f.n != d * d or A_g.n != d * d:
        raise ValidationError("dictionary signal dimension does not match the measurements")
    h_grids = ms.h
    if tv_weight is not None:
        cfg_tv = TvConfig(weight=tv_weight, iterations=tv_iterations)
        h_grids = tuple(tv_denoise(g, cfg_tv) for g in h_grids)
    eps = ms.epsilon if epsilon is None else epsilon
    target = float(np.sqrt(ms.count) * eps) if eps else 0.0
    sys = StackedSystem(A_f, A_g, tuple(g.ravel() for g in h_grids))
    block, report = omp_block(sys, OmpConfig(max_iterations=budget, residual_target=target))
    f_log = A_f.synthesize(block.y_f).reshape(d, d)
    g_logs = [A_g.synthesize(y).reshape(d, d) for y in block.y_g]
    if boundary_values is not None:
        if len(boundary_values) != ms.count:
            raise ValidationError("need one boundary trace per measurement")
        rows, cols = ring_coords(d)
        shifts = []
        for trace, g_log in zip(boundary_values, g_logs):
            trace = np.asarray(trace, dtype=np.float64)
            if trace.shape != (ring_length(d),) or np.any(trace <= 0):
                raise ValidationError("boundary traces must be positive ring vectors")
            shifts.append(np.mean(np.log(trace) - g_log[rows, cols]))
        gauge = float(np.mean(shifts))
        f_log = f_log - gauge
        g_logs = [g + gauge for g in g_logs]
    mu = Grid2(np.exp(f_log))
    u = tuple(Grid2(np.exp(g)) for g in g_logs)
    err = relative_log_error(mu, mu_true) if mu_true is not None else None
    return Gamma1Result(mu, u, block, report, err)


# ---------------------------------------------------------------------------
# Variable-Gamma reconstruction

@dataclass(frozen=True)
class GammaVarConfig:
    """Knobs of the three-step iterative pipeline.

    Measurement roles are index tuples into the problem's measurement list:
    ``separation`` feeds step (1), ``d_triple`` (base solution first) feeds
    the diffusion recoveries (2) and (3b); every measurement feeds the
    absorption average (3c).  Each outer pass starts from forward solutions
    of the current iterates and runs no pursuit, so ``budget_step3`` has no
    effect; it is kept so that callers which pass it keep working.
    ``boundary_band`` must satisfy 0 <= band < d/2.
    """

    mu0: Grid2
    anchor: tuple[tuple[int, int], float]
    budget_step1: int
    budget_step3: int = 0
    outer_iterations: int = 2
    separation: tuple[int, ...] = (0, 1, 2)
    d_triple: tuple[int, int, int] = (0, 3, 4)
    boundary_band: int = 4
    tv_weight: float | None = None
    tv_iterations: int = 100
    smooth_sigma: float = 1.0
    det_threshold: float = 1e-8
    initial_D: Grid2 | None = None      # warm start: skip the first diffusion recovery

    def __post_init__(self):
        if self.outer_iterations < 0:
            raise ValidationError("outer_iterations must be nonnegative")


@dataclass(frozen=True)
class GammaVarResult:
    """Iterates and diagnostics; errors are relative L2 against the truth
    (interior only for D, boundary band excluded).  ``report`` is that of the
    step-1 separation, the only pursuit the pipeline runs."""

    mu: Grid2
    D: Grid2
    mu_baseline: Grid2
    D_initial: Grid2
    u: tuple[Grid2, ...]
    ratio_history: tuple[float, ...]
    mu_errors: tuple[float, ...]
    D_errors: tuple[float, ...]
    report: OmpReport


def _rel_l2_interior(a: Grid2, b: Grid2, band: int) -> float:
    sa = a.values[band:-band, band:-band] if band else a.values
    sb = b.values[band:-band, band:-band] if band else b.values
    return float(np.linalg.norm(sa - sb) / np.linalg.norm(sb))


def reconstruct_gammavar(
    p: QpatProblem,
    dicts: tuple[Dictionary, Dictionary],
    cfg: GammaVarConfig,
) -> GammaVarResult:
    A_f, A_g = dicts
    d = p.side
    n_meas = p.N
    for idx in (*cfg.separation, *cfg.d_triple):
        if not 0 <= idx < n_meas:
            raise ValidationError(f"measurement index {idx} out of range [0, {n_meas}) "
                                  f"(separation={cfg.separation}, d_triple={cfg.d_triple})")
    if not 0 <= 2 * cfg.boundary_band < d:
        raise ValidationError(f"boundary_band must satisfy 0 <= band < d/2 = {d / 2:g}, "
                              f"got {cfg.boundary_band}")

    ms = synthesize_data(p)
    h_img = [g.values for g in ms.h]
    sep = list(cfg.separation)
    ta, tb, tc = cfg.d_triple

    # Step (1): initial separation on the designated subset.  Downstream
    # estimates divide the data by the shared part for every measurement:
    # that keeps one consistent error factor exp(f_true - f_hat) in all u's,
    # which cancels exactly in the ratios the diffusion recovery consumes.
    sys1 = StackedSystem(A_f, A_g, tuple(h_img[i].ravel() for i in sep))
    block1, rep1 = omp_block(sys1, OmpConfig(max_iterations=cfg.budget_step1))
    f_log = A_f.synthesize(block1.y_f).reshape(d, d)
    u_initial = tuple(Grid2(np.exp(h - f_log)) for h in h_img)

    def diffusion_from_base(u_base: Grid2) -> Grid2:
        # The measurement ratios u_j/u_base are exact data (the shared factor
        # Gamma*mu cancels in h_j - h_base), so only the base level carries
        # estimation error into the diffusion recovery.
        ub = u_base.values
        u_b = Grid2(ub * np.exp(h_img[tb] - h_img[ta]))
        u_c = Grid2(ub * np.exp(h_img[tc] - h_img[ta]))
        return recover_log_D(u_base, u_b, u_c, cfg.anchor,
                             det_threshold=cfg.det_threshold, smooth_sigma=cfg.smooth_sigma)

    # Step (2): first diffusion estimate from the gradient-independent triple.
    if cfg.initial_D is not None:
        D_cur = cfg.initial_D
    else:
        D_cur = diffusion_from_base(u_initial[ta])
    D_initial = D_cur
    mu_baseline = _mu_step(D_cur, u_initial, cfg)

    mu_errors = [_rel_l2_interior(mu_baseline, p.mu_true, 0)]
    D_errors = [_rel_l2_interior(D_cur, p.D_true, cfg.boundary_band)]
    u_separated = [u_initial[i] for i in sep]
    ratio_history: list[float] = []

    mu_cur = cfg.mu0
    mu_final = mu_baseline
    u_final = u_initial
    for _ in range(cfg.outer_iterations):
        # (3a) forward solutions for the current iterates become the intensities.
        mu_pde = Grid2(np.maximum(mu_cur.values, 0.0))
        u_next = []
        for phi in p.phis:
            u = solve_diffusion(DiffusionProblem(D_cur, mu_pde, phi))
            if np.any(u.values <= 0):
                raise DomainError("forward solution lost positivity")
            u_next.append(u)
        ratio_history.append(ratio_independence(u_separated, [u_next[i] for i in sep]))

        # (3b) refresh the diffusion coefficient from the smooth iterate level.
        D_cur = diffusion_from_base(u_next[ta])
        # (3c) refresh the absorption.
        mu_cur = _mu_step(D_cur, u_next, cfg)
        mu_final = mu_cur
        u_final = tuple(u_next)
        mu_errors.append(_rel_l2_interior(mu_cur, p.mu_true, 0))
        D_errors.append(_rel_l2_interior(D_cur, p.D_true, cfg.boundary_band))

    return GammaVarResult(
        mu=mu_final,
        D=D_cur,
        mu_baseline=mu_baseline,
        D_initial=D_initial,
        u=u_final,
        ratio_history=tuple(ratio_history),
        mu_errors=tuple(mu_errors),
        D_errors=tuple(D_errors),
        report=rep1,
    )


def _mu_step(D: Grid2, u_list, cfg: GammaVarConfig) -> Grid2:
    mu = recover_mu(D, list(u_list), boundary_band=cfg.boundary_band,
                    mu_background=cfg.mu0, smooth_sigma=cfg.smooth_sigma)
    if cfg.tv_weight is not None:
        mu = tv_denoise(mu, TvConfig(weight=cfg.tv_weight, iterations=cfg.tv_iterations))
    return mu

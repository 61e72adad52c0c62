"""Finite-difference machinery for the diffusion model -div(D grad u) + mu u = 0.

Forward solver: vertex-centered 5-point stencil on the unit square with mesh
h = 1/(d-1), harmonic averaging of D at cell faces and eliminated Dirichlet
rows; the resulting SPD system is solved by conjugate gradient.

Inverse sub-steps: pointwise recovery of grad(log D) from three solutions of
the same equation via the two-solution identity div(D u1^2 grad(u_j/u1)) = 0,
followed by least-squares integration of the gradient field (an anchored
Neumann-Poisson solve built on the exactly adjoint grad/div pair of ``grid``),
and the averaged pointwise absorption formula mu = mean_i div(D grad u_i) / u_i.

Boundary traces are 1D vectors over the 4(d-1) boundary pixels, walked
counterclockwise from pixel (row 0, col 0): bottom row left to right, right
column bottom to top, top row right to left, left column top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import gaussian_filter
from scipy.sparse.linalg import LinearOperator, cg

from .errors import ConditioningError, DomainError, SolverError, ValidationError
from .grid import Grid2, div_adjoint, grad_forward

_CG_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Boundary traces

def ring_length(d: int) -> int:
    return 4 * (d - 1)


def ring_coords(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the boundary walk; each corner appears once."""
    rows = np.concatenate([
        np.zeros(d, dtype=int),                  # bottom, left to right
        np.arange(1, d),                         # right column, upward
        np.full(d - 1, d - 1, dtype=int),        # top, right to left
        np.arange(d - 2, 0, -1),                 # left column, downward
    ])
    cols = np.concatenate([
        np.arange(d),
        np.full(d - 1, d - 1, dtype=int),
        np.arange(d - 2, -1, -1),
        np.zeros(d - 2, dtype=int),
    ])
    return rows, cols


def trace_from_function(d: int, fn) -> np.ndarray:
    """Sample fn(x1, x2) on the boundary pixels, x = (col, row) / (d - 1)."""
    rows, cols = ring_coords(d)
    hm = d - 1.0
    return np.asarray(fn(cols / hm, rows / hm), dtype=np.float64)


def trace_from_grid(g: Grid2) -> np.ndarray:
    rows, cols = ring_coords(g.side)
    return g.values[rows, cols]


def grid_with_trace(d: int, trace: np.ndarray, fill: float = 0.0) -> np.ndarray:
    trace = np.asarray(trace, dtype=np.float64)
    if trace.shape != (ring_length(d),):
        raise ValidationError(f"trace length {trace.shape} != ({ring_length(d)},)")
    out = np.full((d, d), fill)
    rows, cols = ring_coords(d)
    out[rows, cols] = trace
    return out


# ---------------------------------------------------------------------------
# Forward problem

@dataclass(frozen=True)
class DiffusionProblem:
    """Coefficients and Dirichlet data: D > 0, mu >= 0, phi on the ring."""

    D: Grid2
    mu: Grid2
    phi: np.ndarray

    def __post_init__(self):
        if self.D.side != self.mu.side:
            raise ValidationError("D and mu must share one side length")
        if np.any(self.D.values <= 0):
            raise ValidationError("D must be strictly positive")
        if np.any(self.mu.values < 0):
            raise ValidationError("mu must be nonnegative")
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.shape != (ring_length(self.D.side),):
            raise ValidationError(
                f"phi length {phi.size} != 4(d-1) = {ring_length(self.D.side)}")
        object.__setattr__(self, "phi", phi)

    @property
    def side(self) -> int:
        return self.D.side


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


def solve_diffusion(p: DiffusionProblem) -> Grid2:
    """5-point finite-difference solution with Dirichlet data eliminated."""
    d = p.side
    h2 = (1.0 / (d - 1)) ** 2
    D = p.D.values
    mu = p.mu.values
    u = grid_with_trace(d, p.phi)

    m = d - 2
    core = D[1:-1, 1:-1]
    aE = _harmonic(core, D[1:-1, 2:]) / h2
    aW = _harmonic(core, D[1:-1, :-2]) / h2
    aN = _harmonic(core, D[2:, 1:-1]) / h2
    aS = _harmonic(core, D[:-2, 1:-1]) / h2
    diag = (aE + aW + aN + aS + mu[1:-1, 1:-1]).ravel()

    idx = np.arange(m * m).reshape(m, m)
    rows = [np.arange(m * m)]
    cols = [np.arange(m * m)]
    vals = [diag]
    for a, sl_r, sl_c in (
        (aE, np.s_[:, :-1], np.s_[:, 1:]),
        (aW, np.s_[:, 1:], np.s_[:, :-1]),
        (aN, np.s_[:-1, :], np.s_[1:, :]),
        (aS, np.s_[1:, :], np.s_[:-1, :]),
    ):
        rows.append(idx[sl_r].ravel())
        cols.append(idx[sl_c].ravel())
        vals.append(-a[sl_r].ravel())
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * m, m * m),
    )

    rhs = np.zeros((m, m))
    rhs[:, -1] += aE[:, -1] * u[1:-1, -1]
    rhs[:, 0] += aW[:, 0] * u[1:-1, 0]
    rhs[-1, :] += aN[-1, :] * u[-1, 1:-1]
    rhs[0, :] += aS[0, :] * u[0, 1:-1]
    b = rhs.ravel()

    x, info = cg(A, b, rtol=_CG_RTOL, atol=0.0, maxiter=max(2000, m * m))
    res = np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1e-300)
    if info != 0 or res > 10 * _CG_RTOL:
        raise SolverError(f"diffusion CG did not converge: info={info}, relative residual={res:.3e}")
    u[1:-1, 1:-1] = x.reshape(m, m)
    return Grid2(u)


# ---------------------------------------------------------------------------
# Field integration

def integrate_gradient_field(
    f1: np.ndarray, f2: np.ndarray, anchor: tuple[tuple[int, int], float], h: float
) -> np.ndarray:
    """Least-squares potential w with grad w ~ (f1, f2) and w fixed at the anchor.

    Minimizes the squared mismatch over all edges (components averaged onto
    edges), i.e. solves the Neumann-Poisson normal equations; the right-hand
    side is exactly mean-free so plain CG applies, and the additive constant
    is fixed afterwards from the anchor value (w(anchor) = value).
    """
    (ar, ac), aval = anchor
    d = f1.shape[0]
    fx = 0.5 * (f1[:, :-1] + f1[:, 1:])
    fy = 0.5 * (f2[:-1, :] + f2[1:, :])
    b = -div_adjoint(fx, fy, h).ravel()

    def apply_lap(v):
        gx, gy = grad_forward(v.reshape(d, d), h)
        return -div_adjoint(gx, gy, h).ravel()

    A = LinearOperator((d * d, d * d), matvec=apply_lap)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        w = np.zeros((d, d))
    else:
        x, info = cg(A, b, rtol=_CG_RTOL, atol=0.0, maxiter=max(2000, 10 * d * d))
        res = np.linalg.norm(b - A @ x) / bnorm
        if res > 100 * _CG_RTOL:
            raise SolverError(f"field integration CG did not converge: info={info}, relative residual={res:.3e}")
        w = x.reshape(d, d)
    return w - w[ar, ac] + aval


# ---------------------------------------------------------------------------
# Inverse sub-steps

def _gradient(v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx1, d/dx2): centered differences inside, one-sided on the ring."""
    g2, g1 = np.gradient(v, h)
    return g1, g2


def _divergence(c1: np.ndarray, c2: np.ndarray, h: float) -> np.ndarray:
    return np.gradient(c1, h, axis=1) + np.gradient(c2, h, axis=0)


def recover_log_D(
    u1: Grid2,
    u2: Grid2,
    u3: Grid2,
    anchor: tuple[tuple[int, int], float],
    det_threshold: float = 1e-8,
    smooth_sigma: float = 0.0,
) -> Grid2:
    """Diffusion coefficient from three solutions sharing the same D and mu.

    Uses div(D u1^2 grad(u_j/u1)) = 0 for j = 2, 3: the two ratio gradients
    give a pointwise 2x2 system for grad(log D), which is then integrated and
    anchored at one pixel with known value.  Raises ConditioningError when
    the ratio-gradient determinant falls below ``det_threshold`` on interior
    pixels.
    """
    if not (u1.side == u2.side == u3.side):
        raise ValidationError("solutions must share one side length")
    (ar, ac), aval = anchor
    d = u1.side
    if not (0 <= ar < d and 0 <= ac < d):
        raise ValidationError(f"anchor pixel ({ar}, {ac}) outside a {d}x{d} grid")
    if aval <= 0:
        raise ValidationError("anchor value must be positive")
    h = 1.0 / (d - 1)
    us = [u.values for u in (u1, u2, u3)]
    if smooth_sigma > 0:
        us = [gaussian_filter(u, smooth_sigma, mode="nearest") for u in us]
    w1, w2, w3 = us
    if np.any(w1 <= 0):
        raise DomainError("the base solution u1 must be strictly positive")

    rhs = []
    grads = []
    for wj in (w2, w3):
        v = wj / w1
        g1, g2 = _gradient(v, h)
        grads.append((g1, g2))
        beta1, beta2 = w1 ** 2 * g1, w1 ** 2 * g2
        rhs.append(-_divergence(beta1, beta2, h) / w1 ** 2)
    (a11, a12), (a21, a22) = grads          # row j = grad(u_j/u1)
    det = a11 * a22 - a12 * a21

    interior = det[1:-1, 1:-1]
    if interior.min() <= det_threshold:
        bad = np.argwhere(interior <= det_threshold)[:5] + 1
        worst = ", ".join(f"(row={r}, col={c}, det={det[r, c]:.3e})" for r, c in bad)
        raise ConditioningError(
            f"ratio-gradient determinant at or below {det_threshold} on interior pixels: {worst}")

    f1 = (a22 * rhs[0] - a12 * rhs[1]) / det
    f2 = (-a21 * rhs[0] + a11 * rhs[1]) / det
    # One-sided ring estimates can degenerate even when the interior is fine;
    # fall back to the nearest interior value there.
    bad = np.abs(det) <= det_threshold
    if bad.any():
        for f in (f1, f2):
            for src, dst in (((1, slice(None)), (0, slice(None))),
                             ((-2, slice(None)), (-1, slice(None))),
                             ((slice(None), 1), (slice(None), 0)),
                             ((slice(None), -2), (slice(None), -1))):
                mask = bad[dst]
                f[dst] = np.where(mask, f[src], f[dst])

    w = integrate_gradient_field(f1, f2, ((ar, ac), np.log(aval)), h)
    return Grid2(np.exp(w))


def recover_mu(
    D: Grid2,
    u_list: list[Grid2],
    boundary_band: int = 0,
    mu_background: Grid2 | float | None = None,
    smooth_sigma: float = 0.0,
) -> Grid2:
    """Averaged pointwise absorption mean_i div(D grad u_i) / u_i.

    Within ``boundary_band`` pixels of the boundary the second derivatives
    are unreliable, so values there are taken from the known background.
    """
    if not u_list:
        raise ValidationError("need at least one solution")
    d = D.side
    h = 1.0 / (d - 1)
    Dv = D.values
    if smooth_sigma > 0:
        Dv = gaussian_filter(Dv, smooth_sigma, mode="nearest")
    acc = np.zeros((d, d))
    for u in u_list:
        uv = u.values
        if np.any(uv <= 0):
            raise DomainError("solutions must be strictly positive")
        if smooth_sigma > 0:
            uv = gaussian_filter(uv, smooth_sigma, mode="nearest")
        g1, g2 = _gradient(uv, h)
        acc += _divergence(Dv * g1, Dv * g2, h) / uv
    mu = acc / len(u_list)

    if boundary_band > 0:
        if mu_background is None:
            raise ValidationError("boundary_band > 0 requires a known background mu")
        bg = mu_background.values if isinstance(mu_background, Grid2) else float(mu_background)
        r = np.arange(d)
        edge = np.minimum(r, d - 1 - r)
        band = np.minimum.outer(edge, edge) < boundary_band
        mu = np.where(band, bg, mu)
    return Grid2(mu)


def ratio_independence(u_list: list[Grid2], u0_list: list[Grid2]) -> float:
    """Largest pairwise deviation of the ratios u_i/u0_i, relative to the first.

    Zero for a single measurement or whenever all ratios coincide.
    """
    if len(u_list) != len(u0_list):
        raise ValidationError("u_list and u0_list must have equal lengths")
    if len(u_list) < 2:
        return 0.0
    ratios = []
    for u, u0 in zip(u_list, u0_list):
        if np.any(u0.values <= 0):
            raise DomainError("reference solutions must be strictly positive")
        ratios.append(u.values / u0.values)
    denom = np.linalg.norm(ratios[0])
    worst = max(
        np.linalg.norm(ratios[i] - ratios[j])
        for i in range(len(ratios))
        for j in range(i + 1, len(ratios))
    )
    return float(worst / denom)

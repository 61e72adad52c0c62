"""Finite-difference machinery for the diffusion model -div(D grad u) + mu u = 0.

Forward solver: vertex-centered 5-point stencil on the unit square with mesh
h = 1/(d-1), harmonic averaging of D at cell faces and eliminated Dirichlet
rows.  The resulting SPD system is applied matrix-free and solved by
conjugate gradient preconditioned with the exact inverse of the
constant-coefficient Dirichlet Laplacian, which the orthonormal DST-I
diagonalizes (Concus & Golub 1973).  The preconditioner is applied in single
precision; iterate, residual and the convergence test in double.

Inverse sub-steps apply the same stencil to the data on the interior pixels;
each ring pixel takes the value of its nearest interior pixel.  grad(log D)
comes pointwise from three solutions via div(D u1^2 grad(u_j/u1)) = 0 and is
integrated by least squares (an anchored Neumann-Poisson solve on the exactly
adjoint grad/div pair of ``grid``, done exactly in the orthonormal DCT-II
basis; Simchony, Chellappa & Shao 1990); mu = mean_i div(D grad u_i) / u_i.
Both transforms are applied as dense matrix products, cached per size.

Boundary traces are 1D vectors over the 4(d-1) boundary pixels, walked
counterclockwise from pixel (row 0, col 0): bottom row left to right, right
column bottom to top, top row right to left, left column top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConditioningError, DomainError, SolverError, ValidationError
from .grid import Grid2, div_adjoint

_CG_RTOL = 1e-10
_DET_THRESHOLD = 1e-8


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


def grid_with_trace(d: int, trace: np.ndarray) -> np.ndarray:
    trace = np.asarray(trace, dtype=np.float64)
    if trace.shape != (ring_length(d),):
        raise ValidationError(f"trace length {trace.shape} != ({ring_length(d)},)")
    out = np.zeros((d, d))
    rows, cols = ring_coords(d)
    out[rows, cols] = trace
    return out


# ---------------------------------------------------------------------------
# Forward problem

@dataclass(frozen=True)
class DiffusionProblem:
    """Coefficients and Dirichlet data: D > 0, mu >= 0, phi on the ring; side >= 3."""

    D: Grid2
    mu: Grid2
    phi: np.ndarray

    def __post_init__(self):
        if self.D.side != self.mu.side:
            raise ValidationError("D and mu must share one side length")
        if self.D.side < 3:
            raise ValidationError(f"a {self.D.side}x{self.D.side} grid has no interior pixel")
        if np.any(self.D.values <= 0):
            raise ValidationError("D must be strictly positive")
        if np.any(self.mu.values < 0):
            raise ValidationError("mu must be nonnegative")
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.shape != (ring_length(self.D.side),):
            raise ValidationError(
                f"phi length {phi.size} != 4(d-1) = {ring_length(self.D.side)}")
        if not np.isfinite(phi).all():
            raise ValidationError("phi must be finite")
        object.__setattr__(self, "phi", phi)

    @property
    def side(self) -> int:
        return self.D.side


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


def _faces(c: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Face conductances of c over h^2, harmonic means of the two pixels:
    ax[r, j] joins columns j, j+1 of interior row r + 1; ay[i, k] joins rows
    i, i+1 of interior column k + 1."""
    ax = _harmonic(c[1:-1, :-1], c[1:-1, 1:])
    ax /= h * h
    ay = _harmonic(c[:-1, 1:-1], c[1:, 1:-1])
    ay /= h * h
    return ax, ay


def _flux(ax: np.ndarray, ay: np.ndarray, v: np.ndarray) -> np.ndarray:
    """div(c grad v) on the interior pixels: the 5-point stencil with the face
    conductances (ax, ay) = _faces(c, h)."""
    f = np.diff(v[1:-1], axis=1)
    f *= ax
    out = np.subtract(f[:, 1:], f[:, :-1])
    del f                                   # one flux array alive at a time
    f = np.diff(v[:, 1:-1], axis=0)
    f *= ay
    out += f[1:]
    out -= f[:-1]
    return out


@lru_cache(maxsize=4)
def _dst_basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DST-I matrix S of order m (symmetric, S @ S = I) and
    1 / (lam_j + lam_k), the inverse eigenvalues of the m x m Dirichlet
    Laplacian tridiag(-1, 2, -1) (x) I + I (x) tridiag(-1, 2, -1) in that basis.

    Both are float32: the preconditioner is applied in single precision;
    iterate, residual and the convergence test in double.  Computed in double
    and rounded once."""
    k = np.arange(1, m + 1)
    S = (np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))).astype(np.float32)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / (m + 1))
    inv = (1.0 / np.add.outer(lam, lam)).astype(np.float32)
    S.setflags(write=False)
    inv.setflags(write=False)
    return S, inv


@lru_cache(maxsize=4)
def _dct_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix C of order d (rows are the basis vectors) and
    1 / (lam_j + lam_k), the inverse eigenvalues of the d x d Neumann graph
    Laplacian with unit edges in that basis; the constant mode maps to 0."""
    k = np.arange(d)
    C = np.cos(np.pi * np.outer(k, 2 * k + 1) / (2 * d))
    C *= np.sqrt(2.0 / d)
    C[0] /= np.sqrt(2.0)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / d)
    lam_sum = np.add.outer(lam, lam)
    lam_sum[0, 0] = np.inf
    inv = 1.0 / lam_sum
    C.setflags(write=False)
    inv.setflags(write=False)
    return C, inv


def solve_diffusion(p: DiffusionProblem) -> Grid2:
    """5-point finite-difference solution with Dirichlet data eliminated.

    The SPD system is applied matrix-free from the face conductances and
    solved by conjugate gradient, preconditioned by the exact inverse of the
    constant-coefficient Dirichlet Laplacian (a DST-I diagonalization),
    applied in single precision; iterate, residual and the convergence test
    in double.
    """
    u = grid_with_trace(p.side, p.phi)
    _solve_interior(p.D.values, p.mu.values, u)
    # Grid2 copies u; once the solver's work arrays are freed, the copy can
    # take their place instead of growing the heap past them.
    return Grid2(u)


def _solve_interior(D: np.ndarray, mu: np.ndarray, u: np.ndarray) -> int:
    """Overwrite the interior of u, which must be zero, with the solution for
    its boundary values; return the number of CG iterations."""
    m = u.shape[0] - 2
    ax, ay = _faces(D, 1.0 / (m + 1))
    diag = ax[:, 1:] + ax[:, :-1]
    diag += ay[1:]
    diag += ay[:-1]
    diag += mu[1:-1, 1:-1]
    cx, cy = ax[:, 1:-1], ay[1:-1]
    rhs = _flux(ax, ay, u)                  # the boundary data, as u's interior is 0

    # One scratch buffer serves the neighbour products and the updates; the
    # iterate lives in the interior of u.
    t = np.empty((m, m))
    tx, ty = t[:, 1:], t[1:]

    def apply(v, out):
        np.multiply(diag, v, out=out)
        out[:, :-1] -= np.multiply(cx, v[:, 1:], out=tx)
        out[:, 1:] -= np.multiply(cx, v[:, :-1], out=tx)
        out[:-1] -= np.multiply(cy, v[1:], out=ty)
        out[1:] -= np.multiply(cy, v[:-1], out=ty)

    # A positive scale on the preconditioner leaves the iterates unchanged, so
    # the unit-coefficient Laplacian serves for any D.  Its float32 rounding
    # (about 1e-7) is far below its mismatch to the variable-D operator.
    S, inv = _dst_basis(m)
    w, ws = np.empty((m, m), np.float32), np.empty((m, m), np.float32)

    def precondition(v, out):
        w[...] = v
        np.matmul(np.matmul(S, w, out=ws), S, out=w)
        np.multiply(w, inv, out=w)
        np.matmul(np.matmul(S, w, out=ws), S, out=w)
        out[...] = w

    x = u[1:-1, 1:-1]
    r = rhs.copy()
    bnorm = np.linalg.norm(rhs)
    z, q = np.empty((m, m)), np.empty((m, m))
    precondition(r, z)
    pdir = z.copy()
    rz = np.vdot(r, z)
    maxiter = max(2000, m * m)
    for it in range(maxiter):
        if np.linalg.norm(r) <= _CG_RTOL * bnorm:
            break
        apply(pdir, q)
        alpha = rz / np.vdot(pdir, q)
        x += np.multiply(pdir, alpha, out=t)
        r -= np.multiply(q, alpha, out=t)
        precondition(r, z)
        rz, rz_old = np.vdot(r, z), rz
        pdir *= rz / rz_old
        pdir += z
    else:
        it = maxiter
    apply(x, q)
    q -= rhs
    res = np.linalg.norm(q) / max(bnorm, 1e-300)
    if it == maxiter or res > 10 * _CG_RTOL:
        raise SolverError(
            f"diffusion CG did not converge: {it} iterations, relative residual={res:.3e}")
    return it


# ---------------------------------------------------------------------------
# Field integration

def _check_anchor(anchor: tuple[tuple[int, int], float], d: int, positive: bool) -> None:
    """Reject an anchor pixel that is not an integer pair inside the d x d grid,
    or an anchor value that is not finite (or, with ``positive``, not positive)."""
    (ar, ac), aval = anchor
    if not all(isinstance(i, (int, np.integer)) and 0 <= i < d for i in (ar, ac)):
        raise ValidationError(f"anchor pixel ({ar}, {ac}) outside a {d}x{d} grid")
    if not (np.isfinite(aval) and (aval > 0 or not positive)):
        rule = "positive and finite" if positive else "finite"
        raise ValidationError(f"anchor value must be {rule}")


def _check_band(band: int, d: int) -> None:
    """Reject a boundary band outside 0 <= band < d/2."""
    if not 0 <= 2 * band < d:
        raise ValidationError(f"boundary_band must satisfy 0 <= band < d/2 = {d / 2:g}, "
                              f"got {band}")


def integrate_gradient_field(
    f1: np.ndarray, f2: np.ndarray, anchor: tuple[tuple[int, int], float], h: float
) -> np.ndarray:
    """Least-squares potential w with grad w ~ (f1, f2) and w fixed at the anchor.

    Minimizes the squared mismatch over all edges (components averaged onto
    edges), i.e. solves the Neumann-Poisson normal equations
    -div grad w = -div f exactly in the DCT-II basis, which diagonalizes the
    Neumann Laplacian; the constant mode is left out, and the additive
    constant is fixed afterwards from the anchor value (w(anchor) = value),
    which must be finite at a pixel of the grid.  f1 and f2 must be finite
    square arrays of one shape, side at least 2.
    """
    f1, f2 = np.asarray(f1, dtype=np.float64), np.asarray(f2, dtype=np.float64)
    if f1.ndim != 2 or f2.shape != f1.shape or f1.shape[0] != f1.shape[1] or f1.shape[0] < 2:
        raise ValidationError(f"gradient fields must be square arrays of one shape and side "
                              f">= 2, got {f1.shape} and {f2.shape}")
    if not (np.isfinite(f1).all() and np.isfinite(f2).all()):
        raise ValidationError("gradient fields must be finite")
    d = f1.shape[0]
    _check_anchor(anchor, d, positive=False)
    (ar, ac), aval = anchor
    fx = np.add(f1[:, :-1], f1[:, 1:])
    fx *= 0.5
    fy = np.add(f2[:-1, :], f2[1:, :])
    fy *= 0.5
    w = div_adjoint(fx, fy, h)
    del fx, fy
    C, inv = _dct_basis(d)
    t = np.matmul(C, w)
    np.matmul(t, C.T, out=w)
    w *= inv
    w *= -h * h
    np.matmul(C.T, w, out=t)
    np.matmul(t, C, out=w)
    w -= w[ar, ac]
    w += aval
    return w


# ---------------------------------------------------------------------------
# Inverse sub-steps

def _smooth(v: np.ndarray, sigma: float) -> np.ndarray:
    # Imported here: scipy.ndimage costs import time and memory that only
    # the smoothed variants use.
    from scipy.ndimage import gaussian_filter

    return gaussian_filter(v, sigma, mode="nearest")


def _log_D_gradient(
    w1: np.ndarray, w2: np.ndarray, w3: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise grad(log D) from div(D u1^2 grad(u_j/u1)) = 0, j = 2, 3.

    Each interior pixel solves grad(log D) . grad(u_j/u1) = -div(u1^2
    grad(u_j/u1)) / u1^2: the solver's 5-point stencil on the right, centred
    differences in the rows.  Ring pixels copy their nearest interior pixel.
    A determinant at or below 1e-8 on an interior pixel is a ConditioningError.
    """
    ax, ay = _faces(w1 ** 2, h)
    rows, rhs = [], []
    for wj in (w2, w3):
        rho = wj / w1
        rows.append(((rho[1:-1, 2:] - rho[1:-1, :-2]) / (2 * h),
                     (rho[2:, 1:-1] - rho[:-2, 1:-1]) / (2 * h)))
        r = _flux(ax, ay, rho)
        r /= w1[1:-1, 1:-1]
        r /= w1[1:-1, 1:-1]
        rhs.append(np.negative(r, out=r))
    del ax, ay, rho
    (a11, a12), (a21, a22) = rows           # row j = grad(u_j/u1)
    det = a11 * a22 - a12 * a21

    if det.min() <= _DET_THRESHOLD:
        bad = np.argwhere(det <= _DET_THRESHOLD)[:5]
        worst = ", ".join(f"(row={r + 1}, col={c + 1}, det={det[r, c]:.3e})" for r, c in bad)
        raise ConditioningError(
            f"ratio-gradient determinant at or below {_DET_THRESHOLD} on interior pixels: {worst}")

    r1, r2 = rhs
    f1 = a22 * r1
    f1 -= a12 * r2
    f1 /= det
    f2 = r2                                 # (a11 r2 - a21 r1) / det, in place
    f2 *= a11
    f2 -= a21 * r1
    f2 /= det
    return np.pad(f1, 1, mode="edge"), np.pad(f2, 1, mode="edge")


def recover_log_D(
    u1: Grid2,
    u2: Grid2,
    u3: Grid2,
    anchor: tuple[tuple[int, int], float],
    smooth_sigma: float = 0.0,
) -> Grid2:
    """Diffusion coefficient from three solutions sharing the same D and mu.

    Uses div(D u1^2 grad(u_j/u1)) = 0 for j = 2, 3: with the forward solver's
    5-point stencil and centred ratio gradients, each interior pixel gives a
    2x2 system for grad(log D), and ring pixels copy their nearest interior
    pixel.  The field is then integrated and anchored at one pixel with known
    value.  Raises ConditioningError when the ratio-gradient determinant is
    at or below 1e-8 on an interior pixel.
    """
    if not (u1.side == u2.side == u3.side >= 3):
        raise ValidationError("solutions must share one side length of at least 3")
    d = u1.side
    _check_anchor(anchor, d, positive=True)
    (ar, ac), aval = anchor
    h = 1.0 / (d - 1)
    us = [u.values for u in (u1, u2, u3)]
    if smooth_sigma > 0:
        us = [_smooth(u, smooth_sigma) for u in us]
    w1, w2, w3 = us
    if np.any(w1 <= 0):
        raise DomainError("the base solution u1 must be strictly positive")

    f1, f2 = _log_D_gradient(w1, w2, w3, h)
    w = integrate_gradient_field(f1, f2, ((ar, ac), np.log(aval)), h)
    del f1, f2                              # so that the Grid2 copy can reuse them
    return Grid2(np.exp(w, out=w))


def recover_mu(
    D: Grid2,
    u_list: list[Grid2],
    boundary_band: int = 0,
    mu_background: Grid2 | float | None = None,
    smooth_sigma: float = 0.0,
) -> Grid2:
    """Averaged pointwise absorption mean_i div(D grad u_i) / u_i.

    The divergence is the forward solver's 5-point stencil on the interior
    pixels, so exact forward solutions give mu back to the solver's tolerance;
    ring pixels copy their nearest interior pixel.  Within ``boundary_band``
    pixels of the boundary (0 <= band < d/2) the known background is used.
    """
    if not u_list:
        raise ValidationError("need at least one solution")
    d = D.side
    bg = mu_background.values if isinstance(mu_background, Grid2) else mu_background
    if d < 3 or any(u.side != d for u in u_list) or np.shape(bg) not in ((), (d, d)):
        raise ValidationError("D, the solutions and a grid background must share one side "
                              "length of at least 3")
    _check_band(boundary_band, d)
    if boundary_band > 0 and bg is None:
        raise ValidationError("boundary_band > 0 requires a known background mu")
    Dv = D.values
    if not np.all(Dv > 0):
        raise DomainError("D must be strictly positive")
    if smooth_sigma > 0:
        Dv = _smooth(Dv, smooth_sigma)
    ax, ay = _faces(Dv, 1.0 / (d - 1))
    acc = np.zeros((d - 2, d - 2))
    for u in u_list:
        uv = u.values
        if np.any(uv <= 0):
            raise DomainError("solutions must be strictly positive")
        if smooth_sigma > 0:
            uv = _smooth(uv, smooth_sigma)
        acc += _flux(ax, ay, uv) / uv[1:-1, 1:-1]
    acc /= len(u_list)
    mu = np.pad(acc, 1, mode="edge")
    if boundary_band > 0:
        edge = np.minimum(np.arange(d), np.arange(d)[::-1])
        np.copyto(mu, bg, where=np.minimum.outer(edge, edge) < boundary_band)
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

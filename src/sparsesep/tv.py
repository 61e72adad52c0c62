"""Total-variation denoising by dual projection.

Solves min_w ||w - g||^2 / (2 * weight) + TV(w) with the fixed-point dual
iteration on the projection onto the TV unit ball; a fixed iteration count
with dual step <= 0.25 is unconditionally stable.  The scheme preserves the
mean exactly (the discrete divergence telescopes to zero) and can only lower
the discrete total variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Grid2, div_adjoint, grad_forward

_DUAL_STEP = 0.25  # the largest unconditionally stable step


@dataclass(frozen=True)
class TvConfig:
    weight: float
    iterations: int = 100

    def __post_init__(self):
        if not 0 < self.weight < np.inf:
            raise ValidationError(f"weight must be positive and finite, got {self.weight}")
        if self.iterations < 1:
            raise ValidationError(f"iterations must be >= 1, got {self.iterations}")


def _grad(w: np.ndarray) -> np.ndarray:
    """Forward differences with Neumann boundary, zero-padded to (2, d, d)."""
    gx, gy = grad_forward(w, 1.0)
    g = np.zeros((2,) + w.shape)
    g[0, :-1, :] = gy
    g[1, :, :-1] = gx
    return g


def _div(p: np.ndarray) -> np.ndarray:
    """Negative adjoint of :func:`_grad`; sums to zero over pixels."""
    return div_adjoint(p[1, :, :-1], p[0, :-1, :], 1.0)


def total_variation(g: Grid2) -> float:
    """Isotropic discrete TV of an image, with forward differences."""
    grad = _grad(g.values)
    return float(np.sum(np.sqrt(grad[0] ** 2 + grad[1] ** 2)))


def tv_denoise(g: Grid2, cfg: TvConfig) -> Grid2:
    v = g.values
    lam = cfg.weight
    tau = _DUAL_STEP
    p = np.zeros((2,) + v.shape)
    for _ in range(cfg.iterations):
        grad = _grad(_div(p) - v / lam)
        mag = np.sqrt(grad[0] ** 2 + grad[1] ** 2)
        p = (p + tau * grad) / (1.0 + tau * mag)
    return Grid2(v - lam * _div(p))

"""Core signal containers: square images, stacked coefficient blocks and
measurement sets, with the norms, log/exp transforms and the forward-difference
gradient/divergence pair shared by all modules.

Conventions
-----------
Images are d x d float64 arrays over the unit square [0,1]^2.  A pixel
(a1, a2) (1-based, a1 horizontal) lives at ``values[a2 - 1, a1 - 1]``, so the
flattened 1D signal index is ``(a2 - 1) * d + (a1 - 1)`` and plain
``values.ravel()`` produces the signal vector every dictionary acts on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

#: Absolute threshold below which a coefficient counts as zero in l0 counts.
ZERO_TOL = 1e-10


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid2:
    """A d x d real image; the universal container for mu, u, H, D, Gamma."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError(f"Grid2 expects a square 2D array, got shape {v.shape}")
        if v.shape[0] < 2:
            raise ValidationError("Grid2 side must be at least 2")
        if not np.all(np.isfinite(v)):
            raise ValidationError("Grid2 values must be finite")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def side(self) -> int:
        return self.values.shape[0]

    def ravel(self) -> np.ndarray:
        """Flattened signal vector (row-major, see module conventions)."""
        return self.values.ravel()


def grid_from_signal(signal: np.ndarray) -> Grid2:
    """Reshape a length-d^2 signal vector back into a Grid2."""
    signal = np.asarray(signal, dtype=np.float64)
    d = int(round(np.sqrt(signal.size)))
    if d * d != signal.size:
        raise ValidationError(f"signal length {signal.size} is not a perfect square")
    return Grid2(signal.reshape(d, d))


def to_log(g: Grid2) -> Grid2:
    """Elementwise natural log; every value must be strictly positive."""
    v = g.values
    if np.any(v <= 0.0):
        r, c = np.argwhere(v <= 0.0)[0]
        raise DomainError(
            f"to_log requires strictly positive values; "
            f"value {v[r, c]} at pixel (row={r}, col={c})"
        )
    return Grid2(np.log(v))


def from_log(g: Grid2) -> Grid2:
    """Elementwise exp; inverse of :func:`to_log`."""
    return Grid2(np.exp(g.values))


def relative_log_error(mu: Grid2, mu_true: Grid2) -> float:
    """||log mu - log mu_true||_2 / ||log mu_true||_2 over all pixels."""
    if mu.side != mu_true.side:
        raise ValidationError(f"side mismatch: {mu.side} vs {mu_true.side}")
    num = np.linalg.norm(to_log(mu).values - to_log(mu_true).values)
    den = np.linalg.norm(to_log(mu_true).values)
    if den == 0.0:
        raise DomainError("relative_log_error undefined: log of reference is identically zero")
    return float(num / den)


def grad_forward(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences on edges: gx (d, d-1) along x1, gy (d-1, d) along x2."""
    gx = (w[:, 1:] - w[:, :-1]) / h
    gy = (w[1:, :] - w[:-1, :]) / h
    return gx, gy


def div_adjoint(gx: np.ndarray, gy: np.ndarray, h: float) -> np.ndarray:
    """Negative transpose of :func:`grad_forward`: <grad w, p> = -<w, div p>."""
    d = gx.shape[0]
    out = np.zeros((d, d))
    out[:, 0] += gx[:, 0]
    out[:, 1:-1] += gx[:, 1:] - gx[:, :-1]
    out[:, -1] -= gx[:, -1]
    out[0, :] += gy[0, :]
    out[1:-1, :] += gy[1:, :] - gy[:-1, :]
    out[-1, :] -= gy[-1, :]
    return out / h


def _support(x: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.abs(x) > ZERO_TOL)


@dataclass(frozen=True)
class CoeffBlock:
    """Stacked coefficients [y_f, y_g^1, ..., y_g^N] with per-block supports.

    Supports are derived from the entries at construction time (absolute
    threshold ZERO_TOL), so they always contain exactly the nonzero indices.
    """

    y_f: np.ndarray
    y_g: tuple[np.ndarray, ...]

    def __post_init__(self):
        yf = _as_readonly(np.atleast_1d(self.y_f))
        yg = tuple(_as_readonly(np.atleast_1d(v)) for v in self.y_g)
        if yf.ndim != 1 or any(v.ndim != 1 for v in yg):
            raise ValidationError("CoeffBlock blocks must be 1D vectors")
        if len({v.size for v in yg}) > 1:
            raise ValidationError("all y_g blocks must have equal length")
        object.__setattr__(self, "y_f", yf)
        object.__setattr__(self, "y_g", yg)

    @property
    def n_blocks(self) -> int:
        return len(self.y_g)

    @property
    def supports(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        return _support(self.y_f), tuple(_support(v) for v in self.y_g)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.y_f, *self.y_g]) if self.y_g else self.y_f.copy()


def l0_norm(b: CoeffBlock) -> int:
    """Number of nonzero entries across all blocks (threshold ZERO_TOL)."""
    sf, sg = b.supports
    return int(sf.size + sum(s.size for s in sg))


@dataclass(frozen=True)
class MeasurementSet:
    """Log-domain data vectors h_i plus noise/tolerance metadata.

    ``epsilon`` is the combined tolerance; when ``eta``, ``rho_f`` and
    ``rho_g`` are all given it must equal their sum (and is filled in
    automatically when omitted).
    """

    h: tuple[Grid2, ...]
    eta: float | None = None
    rho_f: float | None = None
    rho_g: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        h = tuple(self.h)
        if not h:
            raise ValidationError("MeasurementSet needs at least one measurement")
        if len({g.side for g in h}) != 1:
            raise ValidationError("all measurements must share one side length")
        object.__setattr__(self, "h", h)
        parts = (self.rho_f, self.rho_g, self.eta)
        if all(p is not None for p in parts):
            total = float(self.rho_f + self.rho_g + self.eta)
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", total)
            elif abs(self.epsilon - total) > 1e-12 * max(1.0, total):
                raise ValidationError(
                    f"epsilon={self.epsilon} inconsistent with rho_f+rho_g+eta={total}"
                )

    @property
    def count(self) -> int:
        return len(self.h)

    @property
    def side(self) -> int:
        return self.h[0].side

    def subset(self, n: int) -> "MeasurementSet":
        """First n measurements with the same metadata."""
        if not 1 <= n <= len(self.h):
            raise ValidationError(f"cannot take {n} of {len(self.h)} measurements")
        return MeasurementSet(self.h[:n], eta=self.eta, rho_f=self.rho_f,
                              rho_g=self.rho_g, epsilon=self.epsilon)

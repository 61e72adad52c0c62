"""Greedy l0 solvers.

``omp_single`` is plain orthogonal matching pursuit over one dictionary.
``omp_block`` runs the same greedy scheme on the stacked system for N
measurements h_i = f + g_i: one shared coefficient block y_f (its stacked
column repeats the atom in every measurement row, column norm sqrt(N)) and a
per-measurement block y_g^i (column norm 1).

Every iterate is the exact least-squares fit on the active set.  Both atom
sets are orthonormal, so the Gram matrix of the active stacked columns is
[[N I, B], [B^T, I]]: a multiple of the identity on the f block, the
identity on the g block, dense only across the f/g boundary.  The refit
eliminates the f block and keeps the inverse of its Schur complement
S = I - B^T B / N explicitly, a k_g x k_g matrix over the active g atoms
alone.  A new f atom updates S^-1 by Sherman-Morrison, a new g atom borders
it; each costs O(k_g^2), and its pivot (the new atom's Schur complement
against the active set) is tested against ``_REFIT_TOL``, so a dependent
atom is rejected instead of making the system singular.  The buffers grow
geometrically with the active set, not with the budget.  All dictionary
applications go through the fast transforms; the stacked matrix is never
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg.blas import dspmv, dspr

from .dictionaries import Dictionary
from .errors import ValidationError
from .grid import CoeffBlock

#: Relative pivot below which a new atom counts as dependent on the active set.
_REFIT_TOL = 1e-10


@dataclass(frozen=True)
class OmpConfig:
    """Stopping parameters.

    ``residual_target`` is compared against the stacked residual norm, i.e.
    pass sqrt(N) * epsilon to enforce an aggregate per-measurement tolerance
    epsilon.  Zero means "run until the iteration budget".
    """

    max_iterations: int
    residual_target: float = 0.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.residual_target >= 0:
            raise ValidationError(f"residual_target must be nonnegative, got {self.residual_target}")


@dataclass(frozen=True)
class StackedSystem:
    """N measurements over a shared dictionary pair.

    Column index space: [0, m_f) addresses y_f, then block i occupies
    [m_f + i*m_g, m_f + (i+1)*m_g).  The implicit stacked matrix is only ever
    applied through the dictionaries' fast transforms.
    """

    A_f: Dictionary
    A_g: Dictionary
    h: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.A_f.n != self.A_g.n:
            raise ValidationError("A_f and A_g act on different signal dimensions")
        h = tuple(np.asarray(v, dtype=np.float64) for v in self.h)
        if not h:
            raise ValidationError("need at least one measurement")
        for v in h:
            if v.shape != (self.A_f.n,):
                raise ValidationError(f"measurement shape {v.shape} != ({self.A_f.n},)")
        object.__setattr__(self, "h", h)

    @property
    def N(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class OmpReport:
    """Per-run diagnostics: stacked residual history (entry 0 is the initial
    norm), final per-row residual norms, and the selection order as global
    stacked column indices."""

    residuals: np.ndarray
    per_row_residuals: np.ndarray
    iterations: int
    stop_reason: str
    selected: np.ndarray


def _grow(arr: np.ndarray, need: int, axis: int = 0) -> np.ndarray:
    """``arr`` if it holds ``need`` entries along ``axis``, else a copy with
    room for at least twice as many, so buffers grow geometrically with the
    active set."""
    have = arr.shape[axis]
    if have >= need:
        return arr
    shape = list(arr.shape)
    shape[axis] = max(need, 2 * have)
    out = np.zeros(shape, dtype=arr.dtype)
    out[(slice(None),) * axis + (slice(have),)] = arr
    return out


class _SchurRefit:
    """Exact least-squares refit of the active set through the Schur
    complement of its f block.

    Active f atoms carry their cross rows x = A_g^T a (the rows of X_F) and
    right-hand sides b_F; active g atoms carry (block, beta) and b_G.
    Eliminating the f block from the normal equations [[N I, B], [B^T, I]]
    with B = X_F[:, beta] leaves S = I - B^T B / N, of the size of the g
    block; S^-1 is kept explicitly, packed (upper triangle by columns), so
    that bordering it appends a column and moves nothing.  With t = X_F^T b_F
    maintained per f atom, y_G = S^-1 (b_G - t[beta] / N) and
    y_F = (b_F - X_F v) / N, v = bincount(beta, y_G).  A new f atom updates
    S^-1 by Sherman-Morrison; a new g atom borders it, with its column of S
    taken from X_F^T X_F[:, beta].  Each pivot (the Schur complement of a
    new atom against the active set) is tested against ``_REFIT_TOL``.

    X_F is stored transposed, one contiguous row per beta, and the rows of
    the betas that active g atoms use come first (``order`` maps a row to
    its beta, ``row_of`` back).  v vanishes off those betas, so X_F v and
    the columns of S read one leading block of ``n_support`` rows, not all
    m_g of them.
    """

    def __init__(self, N: int, m_f: int, m_g: int):
        self.N, self.m_f, self.m_g = N, m_f, m_g
        self.n_f = self.n_g = self.n_support = 0
        self.cross = np.zeros((m_g, 16))            # X_F^T, rows permuted
        self.order = np.arange(m_g)
        self.row_of = np.arange(m_g)
        self.f_index = np.zeros(16, dtype=int)
        self.f_rhs = np.zeros(16)
        self.g_block = np.zeros(16, dtype=int)
        self.g_beta = np.zeros(16, dtype=int)
        self.g_rhs = np.zeros(16)
        self.sinv = np.zeros(16 * 17 // 2)          # S^-1, packed upper
        self.t = np.zeros(m_g)

    @staticmethod
    def _dependent(pivot: float, diag: float) -> bool:
        return pivot <= max(_REFIT_TOL * diag, 1e-14)

    def _sinv_times(self, vec: np.ndarray) -> np.ndarray:
        k = self.n_g
        return dspmv(k, 1.0, self.sinv[:k * (k + 1) // 2], vec) if k else np.zeros(0)

    def add_f(self, index: int, x: np.ndarray, rhs: float) -> bool:
        """Append an f atom with cross row x (Sherman-Morrison on S^-1);
        False if it depends on the active set."""
        k = self.n_g
        u = x[self.g_beta[:k]]
        z = self._sinv_times(u)
        pivot = self.N - float(u @ z)
        if self._dependent(pivot, self.N):
            return False
        if k:
            dspr(k, 1.0 / pivot, z, self.sinv[:k * (k + 1) // 2], overwrite_ap=True)
        self.t += rhs * x
        n = self.n_f
        self.cross = _grow(self.cross, n + 1, axis=1)
        self.f_index = _grow(self.f_index, n + 1)
        self.f_rhs = _grow(self.f_rhs, n + 1)
        self.cross[:, n] = x[self.order]
        self.f_index[n] = index
        self.f_rhs[n] = rhs
        self.n_f = n + 1
        return True

    def add_g(self, block: int, beta: int, rhs: float) -> bool:
        """Append a g atom (bordering S^-1); False if it depends on the
        active set."""
        k = self.n_g
        row, lead = self.row_of[beta], self.n_support
        if row >= lead:             # move beta's row into the leading block
            other = self.order[lead]
            self.cross[[lead, row]] = self.cross[[row, lead]]
            self.order[lead], self.order[row] = beta, other
            self.row_of[beta], self.row_of[other] = lead, row
            row = lead
            self.n_support = lead + 1
        X = self.cross[:self.n_support, :self.n_f]
        col = X @ X[row]            # X_F^T X_F[:, beta] on the leading rows
        s = col[self.row_of[self.g_beta[:k]]] * (-1.0 / self.N)
        z = self._sinv_times(s)
        pivot = 1.0 - col[row] / self.N - float(s @ z)
        if self._dependent(pivot, 1.0):
            return False
        # [[S, s], [s^T, sigma]]^-1 = [[S^-1, 0], [0, 0]] + [z; -1][z; -1]^T / pivot
        size = (k + 1) * (k + 2) // 2
        self.sinv = _grow(self.sinv, size)
        self.sinv[k * (k + 1) // 2:size] = 0.0
        dspr(k + 1, 1.0 / pivot, np.append(z, -1.0), self.sinv[:size], overwrite_ap=True)
        self.g_block = _grow(self.g_block, k + 1)
        self.g_beta = _grow(self.g_beta, k + 1)
        self.g_rhs = _grow(self.g_rhs, k + 1)
        self.g_block[k], self.g_beta[k], self.g_rhs[k] = block, beta, rhs
        self.n_g = k + 1
        return True

    def solve(self):
        """Coefficients of the exact fit: y_f (m_f,) and y_g (N, m_g)."""
        k, n = self.n_g, self.n_f
        beta = self.g_beta[:k]
        y_G = self._sinv_times(self.g_rhs[:k] - self.t[beta] / self.N)
        v = np.bincount(self.row_of[beta], weights=y_G, minlength=self.n_support)
        y_f = np.zeros(self.m_f)
        y_f[self.f_index[:n]] = (self.f_rhs[:n] - v @ self.cross[:self.n_support, :n]) / self.N
        y_g = np.zeros((self.N, self.m_g))
        y_g[self.g_block[:k], beta] = y_G
        return y_f, y_g


def omp_single(D: Dictionary, f: np.ndarray, cfg: OmpConfig):
    """Orthogonal matching pursuit of f over a single dictionary.

    Each iteration selects the atom with the largest absolute correlation
    against the residual (ties break to the lowest index), then refits all
    active coefficients by least squares.  Returns the coefficient vector and
    the residual-norm history (initial norm first).
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (D.n,):
        raise ValidationError(f"signal shape {f.shape} != ({D.n},)")
    residual = f.copy()
    history = [float(np.linalg.norm(residual))]
    active: list[int] = []
    atoms = np.zeros((D.n, 0))
    coeffs = np.zeros(D.m)
    stall_tol = 1e-12 * max(1.0, history[0])
    while True:
        if cfg.residual_target > 0 and history[-1] <= cfg.residual_target:
            break
        if len(active) >= min(cfg.max_iterations, D.m):
            break
        corr = D.analyze(residual)
        corr[active] = 0.0
        kbest = int(np.argmax(np.abs(corr)))
        if abs(corr[kbest]) <= stall_tol:
            break
        active.append(kbest)
        atoms = np.column_stack([atoms, D.atom(kbest)])
        x, *_ = np.linalg.lstsq(atoms, f, rcond=None)
        residual = f - atoms @ x
        history.append(float(np.linalg.norm(residual)))
        coeffs.fill(0.0)
        coeffs[np.array(active)] = x
    return coeffs, np.array(history)


def omp_block(sys: StackedSystem, cfg: OmpConfig) -> tuple[CoeffBlock, OmpReport]:
    """Block pursuit over the stacked system; stops at the aggregate
    residual target (sqrt(N) * epsilon) or the iteration budget.

    Each iteration scores every column not yet tried by its correlation with
    the stacked residual over its column norm (sqrt(N) for f, 1 for g; ties
    break to the lowest global index), adds the best one unless it depends
    on the active set, and refits exactly.
    """
    A_f, A_g, N = sys.A_f, sys.A_g, sys.N
    m_f, m_g = A_f.m, A_g.m
    data = np.stack(sys.h)                                        # (N, n)
    # Right-hand side of the normal equations, full index space, computed once.
    bf_full = A_f.analyze(data.sum(axis=0))
    bg_full = A_g.analyze_batch(data)

    total_cols = m_f + N * m_g
    max_k = min(cfg.max_iterations, total_cols)
    active = _SchurRefit(N, m_f, m_g)
    # Reciprocal column norms of the stacked system; zero for every atom
    # already tried, so it never scores again.
    score_scale = np.ones(total_cols)
    score_scale[:m_f] = 1.0 / np.sqrt(N)
    scores = np.empty(total_cols)
    selected: list[int] = []

    y_f, y_g = active.solve()
    stall_tol = 0.0
    residuals = []
    res_rows = np.empty_like(data)

    while True:
        # Residual per row from the current exact refit.
        g_rows = A_g.synthesize_batch(y_g)
        np.subtract(data, A_f.synthesize(y_f) if active.n_f else 0.0, out=res_rows)
        res_rows -= g_rows
        row_sq = np.einsum("ij,ij->i", res_rows, res_rows)
        stacked = float(np.sqrt(row_sq.sum()))
        residuals.append(stacked)
        if not residuals[:-1]:
            stall_tol = 1e-12 * max(1.0, stacked)
        if cfg.residual_target > 0 and stacked <= cfg.residual_target:
            stop_reason = "residual"
            break
        if len(selected) >= max_k:
            stop_reason = "max_iterations"
            break

        np.abs(A_f.analyze(res_rows.sum(axis=0)), out=scores[:m_f])
        np.abs(A_g.analyze_batch(res_rows), out=scores[m_f:].reshape(N, m_g))
        scores *= score_scale
        gidx = int(np.argmax(scores))
        if scores[gidx] <= stall_tol:
            stop_reason = "stalled"
            break
        score_scale[gidx] = 0.0
        if gidx < m_f:
            added = active.add_f(gidx, A_g.analyze(A_f.atom(gidx)), bf_full[gidx])
        else:
            block, beta = divmod(gidx - m_f, m_g)
            added = active.add_g(block, beta, bg_full[block, beta])
        if added:
            selected.append(gidx)
            y_f, y_g = active.solve()

    report = OmpReport(
        residuals=np.array(residuals),
        per_row_residuals=np.sqrt(row_sq),
        iterations=len(selected),
        stop_reason=stop_reason,
        selected=np.array(selected, dtype=int),
    )
    return CoeffBlock(y_f, tuple(y_g)), report


# Bound only because the benchmark tracer looks this name up; it goes with
# that lookup (ROADMAP item 1).
def omp_block_penalized(*args, **kwargs):
    raise NotImplementedError("omp_block_penalized was removed; use omp_block")


def l0_oracle(matrix: np.ndarray, f: np.ndarray, epsilon: float, max_support: int = 4):
    """Brute-force sparsest fit by support enumeration (small instances only).

    Scans supports in order of size, lexicographic within a size, and returns
    ``(coeffs, support)`` for the first least-squares fit with residual norm
    <= epsilon, or None if no support up to ``max_support`` works.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    n, m = matrix.shape
    if n > 25:
        raise ValidationError(f"l0 oracle limited to n <= 25, got n = {n}")
    if max_support > 4:
        raise ValidationError(f"l0 oracle limited to supports of size <= 4, got {max_support}")
    if np.linalg.norm(f) <= epsilon:
        return np.zeros(m), ()
    gram = matrix.T @ matrix
    proj = matrix.T @ f
    for size in range(1, max_support + 1):
        for support in combinations(range(m), size):
            idx = list(support)
            sub = gram[np.ix_(idx, idx)]
            try:
                x = np.linalg.solve(sub, proj[idx])
            except np.linalg.LinAlgError:
                x, *_ = np.linalg.lstsq(matrix[:, idx], f, rcond=None)
            if np.linalg.norm(f - matrix[:, idx] @ x) <= epsilon:
                coeffs = np.zeros(m)
                coeffs[idx] = x
                return coeffs, support
    return None

"""Greedy l0 solvers.

``omp_single`` is plain orthogonal matching pursuit over one dictionary.
``omp_block`` runs the same greedy scheme on the stacked system for N
measurements h_i = f + g_i: one shared coefficient block y_f (its stacked
column repeats the atom in every measurement row, column norm sqrt(N)) and a
per-measurement block y_g^i.  ``omp_block_penalized`` additionally accepts
weighted rows binding one extra shared g-block, which turns the solver into
a lambda-weighted penalized form; no pipeline calls it.

Every iterate is the exact least-squares fit on the active set.  Both atom
sets are orthonormal, so the weighted Gram matrix of the active columns is
[[W2 I, B], [B^T, diag(omega)]]: a multiple of the identity on the f block,
diagonal on the g block, dense only across the f/g boundary.  The refit
eliminates the f block and keeps the inverse of its Schur complement
S = diag(omega) - B^T B / W2 explicitly, a k_g x k_g matrix over the active
g atoms alone.  A new f atom updates S^-1 by Sherman-Morrison, a new g atom
borders it; each costs O(k_g^2), and its pivot (the new atom's Schur
complement against the active set) is tested against ``refit_tolerance``, so
a dependent atom is rejected instead of making the system singular.  The
buffers grow geometrically with the active set, not with the budget.  All
dictionary applications go through the fast transforms; the stacked matrix
is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg.blas import dspmv, dspr

from .dictionaries import Dictionary
from .errors import ValidationError
from .grid import CoeffBlock, ZERO_TOL


@dataclass(frozen=True)
class OmpConfig:
    """Stopping and refit parameters.

    ``residual_target`` is compared against the stacked residual norm, i.e.
    pass sqrt(N) * epsilon to enforce an aggregate per-measurement tolerance
    epsilon.  Zero means "run until the iteration budget".
    """

    max_iterations: int
    residual_target: float = 0.0
    refit_tolerance: float = 1e-10
    zero_threshold: float = ZERO_TOL

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.residual_target < 0:
            raise ValidationError("residual_target must be nonnegative")


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
    right-hand sides b_F; active g atoms carry (block, beta), their weight
    omega = W2_b and b_G.  Eliminating the f block from the normal equations
    [[W2 I, B], [B^T, diag(omega)]] with B = X_F[:, beta] * omega leaves
    S = diag(omega) - B^T B / W2, of the size of the g block; S^-1 is kept
    explicitly, packed (upper triangle by columns), so that bordering it
    appends a column and moves nothing.  With t = X_F^T b_F maintained per
    f atom, y_G = S^-1 (b_G - omega * t[beta] / W2) and
    y_F = (b_F - X_F v) / W2, v = bincount(beta, omega * y_G).  A new f atom
    updates S^-1 by Sherman-Morrison; a new g atom borders it, with its
    column of S taken from X_F^T X_F[:, beta].  Each pivot (the Schur
    complement of a new atom against the active set) is tested against
    ``tolerance``.

    X_F is stored transposed, one contiguous row per beta, and the rows of
    the betas that active g atoms use come first (``order`` maps a row to
    its beta, ``row_of`` back).  v vanishes off those betas, so X_F v and
    the columns of S read one leading block of ``n_support`` rows, not all
    m_g of them.
    """

    def __init__(self, W2: float, m_f: int, m_g: int, n_blocks: int, tolerance: float):
        self.W2, self.tolerance = W2, tolerance
        self.m_f, self.m_g, self.n_blocks = m_f, m_g, n_blocks
        self.n_f = self.n_g = self.n_support = 0
        self.cross = np.zeros((m_g, 16))            # X_F^T, rows permuted
        self.order = np.arange(m_g)
        self.row_of = np.arange(m_g)
        self.f_index = np.zeros(16, dtype=int)
        self.f_rhs = np.zeros(16)
        self.g_block = np.zeros(16, dtype=int)
        self.g_beta = np.zeros(16, dtype=int)
        self.g_omega = np.zeros(16)
        self.g_rhs = np.zeros(16)
        self.sinv = np.zeros(16 * 17 // 2)          # S^-1, packed upper
        self.t = np.zeros(m_g)

    def _dependent(self, pivot: float, diag: float) -> bool:
        return pivot <= max(self.tolerance * max(diag, 1e-30), 1e-14)

    def _sinv_times(self, vec: np.ndarray) -> np.ndarray:
        k = self.n_g
        return dspmv(k, 1.0, self.sinv[:k * (k + 1) // 2], vec) if k else np.zeros(0)

    def add_f(self, index: int, x: np.ndarray, rhs: float) -> bool:
        """Append an f atom with cross row x (Sherman-Morrison on S^-1);
        False if it depends on the active set."""
        k = self.n_g
        u = self.g_omega[:k] * x[self.g_beta[:k]]
        z = self._sinv_times(u)
        pivot = self.W2 - float(u @ z)
        if self._dependent(pivot, self.W2):
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

    def add_g(self, block: int, beta: int, omega: float, rhs: float) -> bool:
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
        s = col[self.row_of[self.g_beta[:k]]] * self.g_omega[:k] * (-omega / self.W2)
        z = self._sinv_times(s)
        pivot = omega - omega * omega * col[row] / self.W2 - float(s @ z)
        if self._dependent(pivot, omega):
            return False
        # [[S, s], [s^T, sigma]]^-1 = [[S^-1, 0], [0, 0]] + [z; -1][z; -1]^T / pivot
        size = (k + 1) * (k + 2) // 2
        self.sinv = _grow(self.sinv, size)
        self.sinv[k * (k + 1) // 2:size] = 0.0
        dspr(k + 1, 1.0 / pivot, np.append(z, -1.0), self.sinv[:size], overwrite_ap=True)
        self.g_block = _grow(self.g_block, k + 1)
        self.g_beta = _grow(self.g_beta, k + 1)
        self.g_omega = _grow(self.g_omega, k + 1)
        self.g_rhs = _grow(self.g_rhs, k + 1)
        self.g_block[k], self.g_beta[k] = block, beta
        self.g_omega[k], self.g_rhs[k] = omega, rhs
        self.n_g = k + 1
        return True

    def solve(self):
        """Coefficients of the exact fit: y_f (m_f,) and y_g (n_blocks, m_g)."""
        k, n = self.n_g, self.n_f
        beta, omega = self.g_beta[:k], self.g_omega[:k]
        y_G = self._sinv_times(self.g_rhs[:k] - omega * self.t[beta] / self.W2)
        v = np.bincount(self.row_of[beta], weights=omega * y_G, minlength=self.n_support)
        y_f = np.zeros(self.m_f)
        y_f[self.f_index[:n]] = (self.f_rhs[:n] - v @ self.cross[:self.n_support, :n]) / self.W2
        y_g = np.zeros((self.n_blocks, self.m_g))
        y_g[self.g_block[:k], beta] = y_G
        return y_f, y_g


def _block_greedy(A_f: Dictionary, A_g: Dictionary, rows, n_blocks: int, cfg: OmpConfig,
                  forced=None):
    """Greedy pursuit on weighted rows (weight, data, block_id).

    ``forced`` pre-seeds the active set with the given global column indices
    (a warm start); they are refit jointly but do not count against
    ``max_iterations``.  Returns (y_f, y_g, report) with y_g of shape
    (n_blocks, m_g).
    """
    m_f, m_g = A_f.m, A_g.m
    weights = np.array([w for w, _, _ in rows], dtype=np.float64)
    if np.any(weights < 0):
        raise ValidationError("row weights must be nonnegative")
    if not np.any(weights > 0):
        raise ValidationError("at least one row weight must be positive")
    data = np.stack([h for _, h, _ in rows])                      # (R, n)
    block_of_row = np.array([b for _, _, b in rows], dtype=int)
    w2 = weights ** 2
    W2 = float(w2.sum())
    # Row 0 sums every weighted row (the f side), row 1 + b those of block b.
    row_weights = np.zeros((1 + n_blocks, len(rows)))
    row_weights[0] = w2
    row_weights[1 + block_of_row, np.arange(len(rows))] = w2
    W2_b = row_weights[1:].sum(axis=1)
    live_g = W2_b > 0.0

    # Right-hand side of the normal equations, full index space, computed once.
    sums = row_weights @ data
    bf_full = A_f.analyze(sums[0])
    bg_full = A_g.analyze_batch(sums[1:])

    forced = [int(i) for i in (forced or [])]
    total_cols = m_f + n_blocks * m_g
    max_k = min(len(forced) + cfg.max_iterations, m_f + int(live_g.sum()) * m_g)
    active = _SchurRefit(W2, m_f, m_g, n_blocks, cfg.refit_tolerance)
    # Reciprocal column norms of the stacked system; zero for the atoms of
    # dead blocks and for every atom already tried, so they never score.
    score_scale = np.empty(total_cols)
    score_scale[:m_f] = 1.0 / np.sqrt(W2)
    score_scale[m_f:] = np.repeat(np.divide(1.0, np.sqrt(W2_b), out=np.zeros(n_blocks), where=live_g), m_g)
    scores = np.empty(total_cols)
    selected: list[int] = []

    def append_atom(gidx: int) -> bool:
        """Add one atom to the active set; False if it is dependent."""
        score_scale[gidx] = 0.0
        if gidx < m_f:
            ok = active.add_f(gidx, A_g.analyze(A_f.atom(gidx)), bf_full[gidx])
        else:
            b_id, beta = divmod(gidx - m_f, m_g)
            ok = active.add_g(b_id, beta, W2_b[b_id], bg_full[b_id, beta])
        if ok:
            selected.append(gidx)
        return ok

    for gidx in forced:
        if not 0 <= gidx < total_cols:
            raise ValidationError(f"warm-start index {gidx} out of range [0, {total_cols})")
        if score_scale[gidx]:
            append_atom(gidx)
    n_forced = len(selected)

    y_f, y_g = active.solve()
    stall_tol = 0.0
    residuals = []
    res_rows = np.empty_like(data)
    stop_reason = "max_iterations"

    while True:
        # Residual per row from the current exact refit.
        g_rows = A_g.synthesize_batch(y_g[block_of_row])
        np.subtract(data, A_f.synthesize(y_f) if active.n_f else 0.0, out=res_rows)
        res_rows -= g_rows
        row_sq = np.einsum("ij,ij->i", res_rows, res_rows)
        stacked = float(np.sqrt(w2 @ row_sq))
        residuals.append(stacked)
        if not residuals[:-1]:
            stall_tol = 1e-12 * max(1.0, stacked)
        if cfg.residual_target > 0 and stacked <= cfg.residual_target:
            stop_reason = "residual"
            break
        if len(selected) - n_forced >= cfg.max_iterations or len(selected) >= max_k:
            stop_reason = "max_iterations"
            break

        sums = row_weights @ res_rows
        np.abs(A_f.analyze(sums[0]), out=scores[:m_f])
        np.abs(A_g.analyze_batch(sums[1:]), out=scores[m_f:].reshape(n_blocks, m_g))
        scores *= score_scale
        gidx = int(np.argmax(scores))
        if scores[gidx] <= stall_tol:
            stop_reason = "stalled"
            break
        if append_atom(gidx):
            y_f, y_g = active.solve()

    report = OmpReport(
        residuals=np.array(residuals),
        per_row_residuals=np.sqrt(row_sq),
        iterations=len(selected) - n_forced,
        stop_reason=stop_reason,
        selected=np.array(selected, dtype=int),
    )
    return y_f, y_g, report


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
    residual target (sqrt(N) * epsilon) or the iteration budget."""
    rows = [(1.0, h_i, i) for i, h_i in enumerate(sys.h)]
    y_f, y_g, report = _block_greedy(sys.A_f, sys.A_g, rows, sys.N, cfg)
    return CoeffBlock(y_f, tuple(y_g)), report


def omp_block_penalized(
    sys: StackedSystem,
    cfg: OmpConfig,
    extra: list[tuple[float, np.ndarray]],
    base_weight: float = 1.0,
    warm_start=None,
) -> tuple[CoeffBlock, OmpReport]:
    """Weighted block pursuit with extra rows binding one shared g-block.

    Base rows carry ``base_weight`` (lambda_1); each extra row is a pair
    (weight, data) tied to the additional block y_g^{N+1}, so the returned
    block has N+1 per-measurement components.  Zero weights are allowed and
    simply mute the corresponding rows.  ``warm_start`` pre-seeds the active
    set with global column indices (typically the selection of a previous
    unweighted run, whose index space is a prefix of this one).

    No pipeline calls this solver.  The variable-Gamma pipeline does not
    re-separate against reference solutions with it: on its instances the
    shared g-block receives no atoms at 64x64 and makes the diffusion
    estimate worse at 128x128, because Haar sparsity cannot keep a smooth
    Gamma out of the shared component.
    """
    if base_weight < 0:
        raise ValidationError("base_weight must be nonnegative")
    n = sys.A_f.n
    rows = [(base_weight, h_i, i) for i, h_i in enumerate(sys.h)]
    for w, h0 in extra:
        h0 = np.asarray(h0, dtype=np.float64)
        if h0.shape != (n,):
            raise ValidationError(f"extra row shape {h0.shape} != ({n},)")
        rows.append((float(w), h0, sys.N))
    y_f, y_g, report = _block_greedy(sys.A_f, sys.A_g, rows, sys.N + 1, cfg,
                                     forced=warm_start)
    return CoeffBlock(y_f, tuple(y_g)), report


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

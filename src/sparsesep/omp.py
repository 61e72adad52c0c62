"""Greedy l0 solvers.

``omp_single`` is plain orthogonal matching pursuit over one dictionary.
``omp_block`` runs the same greedy scheme on the stacked system for N
measurements h_i = f + g_i: one shared coefficient block y_f (its stacked
column repeats the atom in every measurement row, column norm sqrt(N)) and a
per-measurement block y_g^i.  ``omp_block_penalized`` additionally accepts
weighted rows binding one extra shared g-block, which turns the solver into
a lambda-weighted penalized form; no pipeline calls it.

The joint least-squares refit exploits the block structure of the stacked
Gram matrix (diagonal within each dictionary because both atom sets are
orthonormal, dense only across the f/g boundary) and maintains a Cholesky
factor extended by one column per selected atom, so every iterate is the exact
least-squares fit on the active set.  All dictionary applications go through
the fast transforms; the stacked matrix is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dtrtrs

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


def _solve_factor(U: np.ndarray, k: int, rhs: np.ndarray, trans: int) -> np.ndarray:
    """Solve U_k x = rhs (trans=0) or U_k^T x = rhs (trans=1) for the leading
    k x k block of the upper factor U, stored in Fortran order so the block is
    passed to LAPACK in place (leading dimension U.shape[0]), without a copy."""
    x, info = dtrtrs(U[:, :k], rhs, lower=0, trans=trans)
    if info:
        raise LinAlgError(f"singular factor: trtrs returned info={info}")
    return x


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


def _block_greedy(A_f: Dictionary, A_g: Dictionary, rows, n_blocks: int, cfg: OmpConfig,
                  forced=None):
    """Greedy pursuit on weighted rows (weight, data, block_id).

    ``forced`` pre-seeds the active set with the given global column indices
    (a warm start); they are refit jointly but do not count against
    ``max_iterations``.  Returns (y_f, y_g, report) with y_g of shape
    (n_blocks, m_g).
    """
    m_f, m_g = A_f.m, A_g.m
    n = A_f.n
    weights = np.array([w for w, _, _ in rows], dtype=np.float64)
    if np.any(weights < 0):
        raise ValidationError("row weights must be nonnegative")
    if not np.any(weights > 0):
        raise ValidationError("at least one row weight must be positive")
    data = np.stack([h for _, h, _ in rows])                      # (R, n)
    block_of_row = np.array([b for _, _, b in rows], dtype=int)
    w2 = weights ** 2
    W2 = float(w2.sum())
    W2_b = np.zeros(n_blocks)
    np.add.at(W2_b, block_of_row, w2)
    colnorm_f = np.sqrt(W2)
    colnorm_g = np.sqrt(W2_b)
    live_g = W2_b > 0.0

    # Right-hand side of the normal equations, full index space, computed once.
    Hf = (w2[:, None] * data).sum(axis=0)
    Hg = np.zeros((n_blocks, n))
    np.add.at(Hg, block_of_row, w2[:, None] * data)
    bf_full = A_f.analyze(Hf)
    bg_full = A_g.analyze_batch(Hg)

    forced = [int(i) for i in (forced or [])]
    total_cols = m_f + n_blocks * m_g
    max_k = min(len(forced) + cfg.max_iterations, m_f + int(live_g.sum()) * m_g)
    U = np.zeros((max_k, max_k), order="F")   # Cholesky factor, upper: Gram = U^T U
    bvec = np.zeros(max_k)
    cross_f = np.zeros((max_k, m_g))        # analysis of each active f atom in A_g
    pos_isf = np.zeros(max_k, dtype=bool)
    pos_block = np.full(max_k, -1, dtype=int)
    pos_beta = np.full(max_k, -1, dtype=int)
    pos_fidx = np.full(max_k, -1, dtype=int)
    pos_crossrow = np.full(max_k, -1, dtype=int)
    excluded = np.zeros(total_cols, dtype=bool)
    selected: list[int] = []
    state = {"k": 0, "n_f": 0}

    def append_atom(gidx: int) -> bool:
        """Extend the Cholesky factor by one column; False if dependent."""
        k = state["k"]
        gcol = np.zeros(k)
        if gidx < m_f:
            c_new = A_g.analyze(A_f.atom(gidx))
            gmask = ~pos_isf[:k]
            gcol[gmask] = W2_b[pos_block[:k][gmask]] * c_new[pos_beta[:k][gmask]]
            diag0 = W2
            bnew = bf_full[gidx]
        else:
            b_id, beta = divmod(gidx - m_f, m_g)
            fmask = pos_isf[:k]
            gcol[fmask] = W2_b[b_id] * cross_f[pos_crossrow[:k][fmask], beta]
            diag0 = W2_b[b_id]
            bnew = bg_full[b_id, beta]
        if k:
            wvec = _solve_factor(U, k, gcol, trans=1)
            d2 = diag0 - float(wvec @ wvec)
        else:
            wvec = gcol
            d2 = diag0
        excluded[gidx] = True
        if d2 <= max(cfg.refit_tolerance * max(diag0, 1e-30), 1e-14):
            return False              # linearly dependent on the active set
        U[:k, k] = wvec
        U[k, k] = np.sqrt(d2)
        bvec[k] = bnew
        selected.append(gidx)
        if gidx < m_f:
            pos_isf[k] = True
            pos_fidx[k] = gidx
            pos_crossrow[k] = state["n_f"]
            cross_f[state["n_f"]] = c_new
            state["n_f"] += 1
        else:
            pos_block[k] = b_id
            pos_beta[k] = beta
        state["k"] = k + 1
        return True

    def refit():
        k = state["k"]
        y_f = np.zeros(m_f)
        y_g = np.zeros((n_blocks, m_g))
        if k:
            z = _solve_factor(U, k, bvec[:k], trans=1)
            x = _solve_factor(U, k, z, trans=0)
            fm = pos_isf[:k]
            y_f[pos_fidx[:k][fm]] = x[fm]
            y_g[pos_block[:k][~fm], pos_beta[:k][~fm]] = x[~fm]
        return y_f, y_g

    for gidx in forced:
        if not 0 <= gidx < total_cols:
            raise ValidationError(f"warm-start index {gidx} out of range [0, {total_cols})")
        if not excluded[gidx]:
            append_atom(gidx)
    n_forced = state["k"]

    y_f, y_g = refit()
    stall_tol = 0.0
    residuals = []
    res_rows = data.copy()
    stop_reason = "max_iterations"

    while True:
        # Residual per row from the current exact refit.
        f_img = A_f.synthesize(y_f) if state["n_f"] else np.zeros(n)
        g_imgs = A_g.synthesize_batch(y_g)
        res_rows = data - f_img[None, :] - g_imgs[block_of_row]
        row_norms = np.linalg.norm(res_rows, axis=1)
        stacked = float(np.sqrt(np.sum(w2 * row_norms ** 2)))
        residuals.append(stacked)
        if not residuals[:-1]:
            stall_tol = 1e-12 * max(1.0, stacked)
        if cfg.residual_target > 0 and stacked <= cfg.residual_target:
            stop_reason = "residual"
            break
        if state["k"] - n_forced >= cfg.max_iterations or state["k"] >= max_k:
            stop_reason = "max_iterations"
            break

        wres = w2[:, None] * res_rows
        corr_f = A_f.analyze(wres.sum(axis=0))
        acc_g = np.zeros((n_blocks, n))
        for r, b in enumerate(block_of_row):   # np.add.at's order, without its overhead
            acc_g[b] += wres[r]
        corr_g = A_g.analyze_batch(acc_g)

        scores = np.empty(total_cols)
        scores[:m_f] = np.abs(corr_f) / colnorm_f
        sg = np.abs(corr_g)
        sg[live_g] /= colnorm_g[live_g, None]
        sg[~live_g] = 0.0
        scores[m_f:] = sg.ravel()
        scores[excluded] = -1.0
        gidx = int(np.argmax(scores))
        if scores[gidx] <= stall_tol:
            stop_reason = "stalled"
            break
        if append_atom(gidx):
            y_f, y_g = refit()

    report = OmpReport(
        residuals=np.array(residuals),
        per_row_residuals=np.linalg.norm(res_rows, axis=1),
        iterations=state["k"] - n_forced,
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

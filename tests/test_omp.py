import tracemalloc

import numpy as np
import pytest

from sparsesep.dictionaries import concatenate, explicit, fourier1d, haar2d, identity, sinusoid2d
from sparsesep.grid import ZERO_TOL, l0_norm
from sparsesep.omp import (
    OmpConfig,
    StackedSystem,
    l0_oracle,
    omp_block,
    omp_block_penalized,
    omp_single,
)


def support(x):
    return set(np.flatnonzero(np.abs(x) > ZERO_TOL))


# ---------------------------------------------------------------------------
# omp_single

def test_single_exact_atom():
    D = haar2d(3)
    coeffs, hist = omp_single(D, D.atom(5), OmpConfig(10, residual_target=1e-12))
    assert support(coeffs) == {5}
    assert coeffs[5] == pytest.approx(1.0)
    assert len(hist) == 2 and hist[-1] < 1e-12


def test_single_two_atoms_exact():
    D = haar2d(3)
    f = 2.0 * D.atom(3) + 1.0 * D.atom(7)
    coeffs, hist = omp_single(D, f, OmpConfig(10, residual_target=1e-12))
    assert support(coeffs) == {3, 7}
    assert coeffs[3] == pytest.approx(2.0) and coeffs[7] == pytest.approx(1.0)
    assert len(hist) == 3


def test_single_orthobasis_k_sparse_recovery():
    # with an orthobasis and no noise, any k-sparse signal comes back in k steps
    rng = np.random.default_rng(0)
    D = fourier1d(64)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        y = np.zeros(64)
        y[rng.choice(64, size=k, replace=False)] = rng.standard_normal(k) + np.sign(rng.standard_normal(k)) * 0.5
        coeffs, hist = omp_single(D, D.synthesize(y), OmpConfig(10, residual_target=1e-10))
        assert support(coeffs) == support(y)
        assert len(hist) == k + 1


def test_single_residual_monotone_and_no_reselection():
    rng = np.random.default_rng(1)
    D = concatenate(identity(16), fourier1d(16))
    f = rng.standard_normal(16)
    coeffs, hist = omp_single(D, f, OmpConfig(12))
    assert np.all(np.diff(hist) <= 1e-12)
    # exact refit keeps active-atom correlations at zero, so supports never shrink
    assert len(support(coeffs)) == len(hist) - 1


def test_single_tie_breaks_to_lowest_index():
    # two identical-correlation atoms: the duplicate column comes after
    base = np.eye(4)
    D = concatenate(identity(4), identity(4))
    f = np.array([1.0, 0.0, 0.0, 0.0])
    coeffs, _ = omp_single(D, f, OmpConfig(1))
    assert support(coeffs) == {0}


# ---------------------------------------------------------------------------
# oracle

def test_oracle_finds_planted_support():
    rng = np.random.default_rng(2)
    C = concatenate(identity(16), fourier1d(16))
    M = C.to_matrix()
    truth = np.zeros(32)
    truth[[3, 20]] = [2.0, -1.5]
    res = l0_oracle(M, M @ truth, 1e-9, max_support=3)
    assert res is not None
    coeffs, supp = res
    assert supp == (3, 20)
    assert np.allclose(coeffs[[3, 20]], [2.0, -1.5])


def test_oracle_zero_signal():
    M = np.eye(6)
    coeffs, supp = l0_oracle(M, np.zeros(6), 1e-12)
    assert supp == () and not coeffs.any()


def test_oracle_returns_none_when_too_dense():
    M = np.eye(8)
    f = np.ones(8)
    assert l0_oracle(M, f, 1e-9, max_support=3) is None


def test_omp_matches_oracle_on_small_instances():
    # planted spike+flat mixtures at n=16: greedy pursuit finds the l0-optimal
    # support in at least 45 of 50 seeded draws; every run meets the residual
    rng = np.random.default_rng(7)
    C = concatenate(identity(16), fourier1d(16))
    M = C.to_matrix()
    eps = 1e-8
    hits = 0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        supp = rng.choice(32, size=k, replace=False)
        truth = np.zeros(32)
        truth[supp] = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
        f = M @ truth
        best = l0_oracle(M, f, eps, max_support=3)
        assert best is not None
        coeffs, hist = omp_single(C, f, OmpConfig(3, residual_target=eps))
        assert hist[-1] <= eps or len(hist) == 4
        if support(coeffs) == set(best[1]):
            hits += 1
        assert hist[-1] <= eps
    assert hits >= 45


# ---------------------------------------------------------------------------
# omp_block

def _random_system(rng, d=8, L=3, N=3):
    A_f, A_g = haar2d(3), sinusoid2d(d, L, True)
    h = tuple(rng.standard_normal(d * d) for _ in range(N))
    return StackedSystem(A_f, A_g, h)


def test_block_recovers_distinct_atoms():
    A_f, A_g = haar2d(3), sinusoid2d(8, 3, False)
    targets = (5, 11, 2)
    sys = StackedSystem(A_f, A_g, tuple(A_g.atom(t) for t in targets))
    block, report = omp_block(sys, OmpConfig(10, residual_target=1e-10))
    assert support(block.y_f) == set()
    for y, t in zip(block.y_g, targets):
        assert support(y) == {t}
    assert report.stop_reason == "residual"
    assert report.iterations == 3


def test_block_n1_equals_single_on_concatenation():
    rng = np.random.default_rng(3)
    A_f, A_g = haar2d(3), sinusoid2d(8, 3, True)
    C = concatenate(A_f, A_g)
    for _ in range(5):
        h = rng.standard_normal(64)
        block, _ = omp_block(StackedSystem(A_f, A_g, (h,)), OmpConfig(12))
        single, _ = omp_single(C, h, OmpConfig(12))
        assert support(block.stacked()) == support(single)
        assert np.abs(block.stacked() - single).max() < 1e-8


def test_block_residual_monotone_no_duplicates():
    rng = np.random.default_rng(4)
    sys = _random_system(rng)
    block, report = omp_block(sys, OmpConfig(30))
    assert np.all(np.diff(report.residuals) <= 1e-12)
    assert len(set(report.selected.tolist())) == report.iterations


def test_block_aggregate_constraint_on_residual_stop():
    rng = np.random.default_rng(5)
    A_f, A_g = haar2d(3), sinusoid2d(8, 3, True)
    # data built from few atoms so the target is reachable
    yf = np.zeros(A_f.m); yf[[2, 9]] = [1.0, -0.7]
    shared = A_f.synthesize(yf)
    h = tuple(shared + 0.8 * A_g.atom(4 + i) for i in range(3))
    sys = StackedSystem(A_f, A_g, h)
    eps = 1e-8
    block, report = omp_block(sys, OmpConfig(50, residual_target=np.sqrt(3) * eps))
    assert report.stop_reason == "residual"
    assert report.residuals[-1] <= np.sqrt(3) * eps
    assert float(np.sqrt(np.sum(report.per_row_residuals ** 2))) <= np.sqrt(3) * eps


def test_block_column_index_partition():
    # selected indices land in the documented global index ranges
    rng = np.random.default_rng(6)
    sys = _random_system(rng, N=2)
    m_f, m_g = sys.A_f.m, sys.A_g.m
    block, report = omp_block(sys, OmpConfig(20))
    for gidx in report.selected:
        if gidx >= m_f:
            b, beta = divmod(gidx - m_f, m_g)
            assert 0 <= b < 2 and 0 <= beta < m_g
    assert l0_norm(block) == report.iterations


# ---------------------------------------------------------------------------
# omp_block_penalized

def test_penalized_zero_weight_degenerates_to_block():
    rng = np.random.default_rng(8)
    sys = _random_system(rng, N=2)
    base, _ = omp_block(sys, OmpConfig(15))
    pen, _ = omp_block_penalized(sys, OmpConfig(15), [(0.0, sys.h[0])], base_weight=0.7)
    assert support(pen.y_f) == support(base.y_f)
    for yb, yp in zip(base.y_g, pen.y_g[:-1]):
        assert support(yb) == support(yp)
    assert support(pen.y_g[-1]) == set()


def test_penalized_symmetric_weights_tie_break():
    # equal weights and identical data: the shared block column for a given
    # atom has the same correlation as the per-measurement column, and the
    # per-measurement block wins by index order
    A_f, A_g = haar2d(3), sinusoid2d(8, 3, False)
    h = A_g.atom(7)
    sys = StackedSystem(A_f, A_g, (h,))
    pen, report = omp_block_penalized(sys, OmpConfig(3), [(1.0, h)], base_weight=1.0)
    first = report.selected[0]
    assert first == A_f.m + 7      # block 0 (the measurement), not the shared block


def test_penalized_recovers_shared_ratio_block():
    # per-measurement data share one wavelet part; the extra rows all equal a
    # single sinusoid atom, which must land in the shared block exactly
    A_f, A_g = haar2d(3), sinusoid2d(8, 3, False)
    yf = np.zeros(A_f.m); yf[[3, 17]] = [1.2, -0.5]
    shared_img = A_f.synthesize(yf)
    N = 3
    h = tuple(shared_img + A_g.atom(2 + i) for i in range(N))
    h0 = tuple(shared_img + 0.9 * A_g.atom(10) for _ in range(N))
    sys = StackedSystem(A_f, A_g, h)
    pen, report = omp_block_penalized(
        sys, OmpConfig(40, residual_target=1e-9), [(10.0, r) for r in h0], base_weight=1.0)
    assert support(pen.y_g[-1]) == {10}
    assert pen.y_g[-1][10] == pytest.approx(0.9, abs=1e-8)
    for i in range(N):
        assert 2 + i in support(pen.y_g[i])
    assert support(pen.y_f) == {3, 17}


# ---------------------------------------------------------------------------
# the Schur-complement refit

def _dense_stacked(A_f, A_g, rows, n_blocks):
    """The weighted stacked matrix and right-hand side, materialized."""
    Mf, Mg = A_f.to_matrix(), A_g.to_matrix()
    blocks = [np.hstack([w * Mf] + [w * Mg if j == b else np.zeros_like(Mg) for j in range(n_blocks)])
              for w, _, b in rows]
    return np.vstack(blocks), np.concatenate([w * h for w, h, _ in rows])


def _random_orthonormal(n):
    q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((n, n)))
    return explicit(q)


@pytest.mark.parametrize("make_f", [lambda: haar2d(3), lambda: _random_orthonormal(64)],
                         ids=["haar2d", "explicit"])
def test_penalized_coefficients_equal_dense_weighted_lstsq(make_f):
    # unequal row weights, a zero-weight row and forced atoms in f, in two
    # measurement blocks and in the shared block
    rng = np.random.default_rng(11)
    A_f, A_g = make_f(), sinusoid2d(8, 2)
    N, m_f, m_g = 3, A_f.m, A_g.m
    sys = StackedSystem(A_f, A_g, tuple(rng.standard_normal(64) for _ in range(N)))
    extra = [(1.7, rng.standard_normal(64)), (0.0, rng.standard_normal(64)), (0.4, rng.standard_normal(64))]
    warm = [3, 40, m_f + 5, m_f + 2 * m_g + 7, m_f + N * m_g + 1]
    block, report = omp_block_penalized(sys, OmpConfig(25), extra, base_weight=0.6, warm_start=warm)
    assert report.selected[:5].tolist() == warm and report.iterations == 25
    rows = [(0.6, h, i) for i, h in enumerate(sys.h)] + [(w, h, N) for w, h in extra]
    M, rhs = _dense_stacked(A_f, A_g, rows, N + 1)
    x, *_ = np.linalg.lstsq(M[:, report.selected], rhs, rcond=None)
    expected = np.zeros(M.shape[1])
    expected[report.selected] = x
    assert np.abs(block.stacked() - expected).max() <= 1e-10


def test_dependent_constant_atom_is_rejected():
    # The four coarsest Haar atoms sum to a constant, and so do the constant
    # sinusoids of the two blocks: with both constants forced first, the
    # fourth coarse Haar atom is dependent.
    A_f, A_g = haar2d(3), sinusoid2d(8, 2, include_constant=True)
    m_f, m_g = A_f.m, A_g.m
    const = m_g - 1
    h = (np.full(64, 1.5), np.full(64, -0.5))
    sys = StackedSystem(A_f, A_g, h)
    warm = [m_f + const, m_f + m_g + const, 60, 61, 62, 63]
    block, report = omp_block_penalized(sys, OmpConfig(10), [], warm_start=warm)
    assert report.selected.tolist() == warm[:5]
    assert report.iterations == 0 and report.stop_reason == "stalled"
    assert report.residuals[-1] < 1e-12
    # A longer pursuit on data with a random part exhausts the independent
    # columns (64 + 25 of 114) and stops without a singular active set.
    rng = np.random.default_rng(13)
    h = tuple(c + A_f.synthesize(rng.standard_normal(m_f)) for c in h)
    block, report = omp_block(StackedSystem(A_f, A_g, h), OmpConfig(200))
    M, rhs = _dense_stacked(A_f, A_g, [(1.0, v, i) for i, v in enumerate(h)], 2)
    cols = M[:, report.selected]
    assert report.stop_reason in ("stalled", "max_iterations")
    assert len(report.selected) <= 64 + 25
    assert np.linalg.matrix_rank(cols) == len(report.selected)
    x, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    assert np.abs(block.stacked()[report.selected] - x).max() <= 1e-10


def test_forced_atom_in_zero_weight_block_is_rejected_and_not_counted():
    rng = np.random.default_rng(14)
    sys = _random_system(rng, N=2)
    m_f, m_g = sys.A_f.m, sys.A_g.m
    shared = m_f + 2 * m_g + 3
    pen, report = omp_block_penalized(sys, OmpConfig(6), [(0.0, sys.h[0])], warm_start=[shared, 5])
    assert shared not in report.selected.tolist()
    assert report.selected[0] == 5
    assert report.iterations == 6 and len(report.selected) == 7
    assert support(pen.y_g[-1]) == set()


def test_pursuit_memory_follows_work_not_budget():
    # 40 Haar atoms shared, 10 sinusoids per measurement: the pursuit stops
    # on its residual target after 70 iterations whatever the budget.
    rng = np.random.default_rng(12)
    A_f, A_g = haar2d(5), sinusoid2d(32, 8, True)

    def sparse(m, k):
        y = np.zeros(m)
        y[rng.choice(m, k, replace=False)] = rng.choice([-1.0, 1.0], k) * (1 + rng.random(k))
        return y

    shared = A_f.synthesize(sparse(A_f.m, 40))
    sys = StackedSystem(A_f, A_g, tuple(shared + A_g.synthesize(sparse(A_g.m, 10)) for _ in range(3)))

    def peak(budget):
        tracemalloc.start()
        try:
            _, report = omp_block(sys, OmpConfig(budget, residual_target=1e-8 * np.sqrt(3)))
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    small, r_small = peak(200)
    large, r_large = peak(10 ** 6)
    assert r_small.stop_reason == r_large.stop_reason == "residual"
    assert r_small.iterations == r_large.iterations == 70
    assert large <= 1.5 * small


def test_config_validation():
    with pytest.raises(Exception):
        OmpConfig(0)
    with pytest.raises(Exception):
        OmpConfig(5, residual_target=-1.0)

import numpy as np
import pytest

from sparsesep.dictionaries import (
    analyze_complement_norm,
    explicit,
    fourier1d,
    haar2d,
    identity,
    sinusoid2d,
)
from sparsesep.diagnostics import (
    cs1_check,
    cs2_probe,
    dictionary_aligned_probes,
    dirac_comb,
    haar_sin_bound,
    random_sparse_probes,
    verify_normalized_up,
    verify_uncertainty,
    xi_p,
)
from sparsesep.errors import ValidationError


# ---------------------------------------------------------------------------
# CS1

def test_cs1_disjoint_supports_always_pass():
    y1 = np.array([1.0, 0.0, 2.0, 0.0])
    y2 = np.array([0.0, 3.0, 0.0, 4.0])
    for beta in (1e-6, 1.0, 100.0):
        assert cs1_check([y1, y2], beta) == []


def test_cs1_identical_vectors_violate_everywhere():
    y = np.array([1.0, 0.0, -2.0])
    violations = cs1_check([y, y.copy()], 0.0)
    assert {(v.i, v.j, v.alpha) for v in violations} == {(0, 1, 0), (0, 1, 2)}


def test_cs1_threshold_arithmetic():
    y1 = np.array([1.0, 0.0])
    y2 = np.array([1.5, 0.0])
    assert cs1_check([y1, y2], 0.4) == []
    v = cs1_check([y1, y2], 0.6)
    assert len(v) == 1 and v[0].alpha == 0


@pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf")])
def test_cs1_rejects_negative_or_non_finite_beta(beta):
    # identical vectors violate CS1 for every beta >= 0; these betas would
    # report that CS1 holds (-1, nan) or flag every shared entry (inf)
    y = np.array([1.0, 0.0, -2.0])
    with pytest.raises(ValidationError, match="beta"):
        cs1_check([y, y.copy()], beta)


# ---------------------------------------------------------------------------
# xi_p

def test_xi_p_examples():
    assert xi_p([3.0, -1.0, 2.0], 2) == 2.0
    assert xi_p([3.0, -1.0, 2.0], 1) == 3.0   # p=1 is the sup norm
    with pytest.raises(ValidationError):
        xi_p([1.0, 2.0], 3)


def test_xi_p_positive_iff_l0_at_least_p():
    rng = np.random.default_rng(0)
    for _ in range(30):
        q = np.where(rng.random(12) < 0.5, rng.standard_normal(12), 0.0)
        l0 = int(np.sum(q != 0))
        for p in range(1, 13):
            assert (xi_p(q, p) > 0) == (l0 >= p)


def test_xi_p_non_increasing_in_p():
    rng = np.random.default_rng(1)
    q = rng.standard_normal(20)
    vals = [xi_p(q, p) for p in range(1, 21)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# haar_sin_bound

def test_haar_sin_bound_reference_values():
    assert haar_sin_bound(7, 15) == 1160
    # decomposition with B = 4: (64 - 30)^2 + (32 - 30)^2
    assert (64 - 30) ** 2 + (32 - 30) ** 2 == 1160
    assert haar_sin_bound(4, 1) == 40
    assert (8 - 2) ** 2 + (4 - 2) ** 2 == 40


def test_haar_sin_bound_domain():
    with pytest.raises(ValidationError):
        haar_sin_bound(7, 32)      # L >= 2^(J-2)
    with pytest.raises(ValidationError):
        haar_sin_bound(4, 4)


def test_haar_sin_bound_monotone_in_L_and_square_terms():
    for J in (5, 6, 7):
        vals = [haar_sin_bound(J, L) for L in range(1, 2 ** (J - 2))]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    # every term of the defining sum is a perfect square
    J, L = 6, 3
    B = next(b for b in range(1, J - 1) if L < 2 ** b)
    terms = [(2 ** (J - j) - 2 * L) ** 2 for j in range(1, J - B)]
    assert sum(terms) == haar_sin_bound(J, L)
    for t in terms:
        assert int(np.sqrt(t)) ** 2 == t


# ---------------------------------------------------------------------------
# joint-sparsity sweeps

def test_uncertainty_comb_equality_case():
    n = 256
    I, F = identity(n), fourier1d(n)
    comb = dirac_comb(n)
    total = int(np.sum(np.abs(I.analyze(comb)) > 1e-10) + np.sum(np.abs(F.analyze(comb)) > 1e-10))
    assert total == 2 * 16                      # equality: 2 sqrt(n) = 2/M
    rep = verify_uncertainty(I, F, trials=30, rng_seed=0)
    assert rep.bound == pytest.approx(32.0)
    assert rep.min_sum == 32                    # the comb attains the bound
    assert rep.violations == 0


def test_uncertainty_single_spike_dense_flat_side():
    n = 64
    I, F = identity(n), fourier1d(n)
    spike = np.zeros(n); spike[5] = 1.0
    assert np.sum(np.abs(I.analyze(spike)) > 1e-10) == 1
    assert np.sum(np.abs(F.analyze(spike)) > 1e-10) == n
    assert 1 + n >= 2.0 / (1.0 / 8.0)


def test_uncertainty_random_sweep_no_violations():
    # 200 random up-to-3-sparse signals at n = 64 across 3 random orthobasis pairs
    rng = np.random.default_rng(2)
    n = 64
    for trial in range(3):
        qa, _ = np.linalg.qr(rng.standard_normal((n, n)))
        qb, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rep = verify_uncertainty(explicit(qa), explicit(qb), trials=67, rng_seed=trial)
        assert rep.violations == 0


def test_uncertainty_requires_orthobases():
    with pytest.raises(ValidationError):
        verify_uncertainty(identity(16), sinusoid2d(4, 1, False), 5, 0)


# ---------------------------------------------------------------------------
# CS2 probing

def test_cs2_comb_margin_matches_closed_form():
    # spikes against the flat basis at n = 256, probe = the comb:
    # supports placed adversarially give margin (N+1)(sqrt(n) - l) - 2k
    n, s = 256, 16
    I, F = identity(n), fourier1d(n)
    comb = dirac_comb(n)
    s_q = set(np.flatnonzero(np.abs(F.analyze(comb)) >= 1.0))
    assert len(s_q) == s and set(np.flatnonzero(comb)).__len__() == s
    for N, k, l in ((3, 5, 4), (2, 10, 8), (4, 30, 12)):
        y_f_supp = list(np.flatnonzero(comb))[:k] if k <= s else list(range(k))
        # one measurement support inside S_q, the rest disjoint from it
        sq_list = sorted(s_q)
        y_g_supps = [sq_list[:l]]
        free = [a for a in range(n) if a not in s_q]
        for i in range(1, N):
            y_g_supps.append(free[(i - 1) * l:i * l])
        rec = cs2_probe(I, F, y_f_supp, y_g_supps, [comb], d_const=1.0)[0]
        if k <= s:
            expected = (N + 1) * (s - l) - 2 * k
            assert rec.margin == expected
            assert rec.passed == (2 * k / (N + 1) + l < s)
        assert rec.in_domain


def test_cs2_restricted_dictionary_iff():
    # keep only the m_g flat atoms that see the comb; with all supports inside
    # S_q and their union covering everything, the pass condition is exactly
    # 2k < N(sqrt(n) - l) + sqrt(n) - m_g
    n, s = 256, 16
    I, F = identity(n), fourier1d(n)
    comb = dirac_comb(n)
    sq = sorted(np.flatnonzero(np.abs(F.analyze(comb)) >= 1.0))
    FM = F.to_matrix()[:, sq]                  # m_g = 16 atoms, S_q = all of them
    A_g = explicit(FM)
    m_g = len(sq)
    N, l = 3, 8
    y_g_supps = [list(range(0, l)), list(range(4, 4 + l)), list(range(8, 16))]
    assert set().union(*map(set, y_g_supps)) == set(range(m_g))
    for k in range(1, 16):
        y_f_supp = list(np.flatnonzero(comb))[:k]
        rec = cs2_probe(I, A_g, y_f_supp, y_g_supps, [comb], d_const=1.0)[0]
        assert rec.passed == (2 * k < N * (s - l) + s - m_g)


def test_cs2_subset_probe_fails():
    # probe support inside supp y_f and S_q inside every y_g support: lhs = 0
    n = 16
    I, F = identity(n), fourier1d(n)
    comb = dirac_comb(n)
    s_q = list(np.flatnonzero(np.abs(F.analyze(comb)) >= 1.0))
    rec = cs2_probe(I, F, list(np.flatnonzero(comb)), [s_q, s_q], [comb], d_const=0.5)[0]
    assert rec.lhs == 0
    assert not rec.passed


@pytest.mark.parametrize("d_const", [float("nan"), -1.0, 0.0, float("inf")])
def test_probes_reject_d_const_that_is_not_positive_and_finite(d_const):
    n = 16
    I, F = identity(n), fourier1d(n)
    comb = dirac_comb(n)
    with pytest.raises(ValidationError, match="d_const"):
        cs2_probe(I, F, [0], [[1]], [comb], d_const=d_const)
    with pytest.raises(ValidationError, match="d_const"):
        verify_normalized_up(I, F, [comb], d_const=d_const)


def test_cs2_norms_are_those_of_the_probe_signal():
    # a Haar/sinusoid pair, so the complement norms are nonzero
    A_f, A_g = haar2d(4), sinusoid2d(16, 3, True)
    probes = random_sparse_probes(A_f.m, 4, 5, np.random.default_rng(2), scale=10.0)
    for q, rec in zip(probes, cs2_probe(A_f, A_g, [0], [[1]], probes, d_const=1.0)):
        signal = A_f.synthesize(q)
        assert rec.signal_norm == float(np.linalg.norm(signal))
        assert rec.complement_norm == analyze_complement_norm(A_g, signal) > 0


# ---------------------------------------------------------------------------
# thresholded one-sided bound

def test_normalized_up_scaled_comb_equality():
    n = 256
    I, F = identity(n), fourier1d(n)
    q = 5.0 * dirac_comb(n)                     # coefficients 5 >= 1 stay in S_q
    rec = verify_normalized_up(I, F, [q], d_const=1.0)[0]
    assert rec.in_domain
    assert rec.l0_q == 16 and rec.s_q_count == 16
    assert rec.lhs == rec.bound == 32.0
    assert rec.passed


def test_normalized_up_out_of_domain_skip():
    # a single wavelet atom leaves a large component outside the sinusoid span
    A_f = haar2d(4)
    A_g = sinusoid2d(16, 3, False)
    q = np.zeros(A_f.m); q[0] = 100.0
    rec = verify_normalized_up(A_f, A_g, [q], d_const=1.0)[0]
    assert not rec.in_domain
    assert rec.passed is None


def test_normalized_up_dense_probe_trivially_passes():
    rng = np.random.default_rng(3)
    n = 64
    I, F = identity(n), fourier1d(n)
    q = 50.0 * rng.standard_normal(n)
    rec = verify_normalized_up(I, F, [q], d_const=1.0)[0]
    assert rec.in_domain and rec.passed
    assert rec.l0_q == n


# ---------------------------------------------------------------------------
# Haar/sinusoid support bound on in-domain probes

@pytest.mark.parametrize("J,L", [(4, 1), (5, 1), (5, 2)])
def test_sinusoid_span_probes_satisfy_support_bound(J, L):
    # signals from the (non-constant) sinusoid span analyzed in the Haar basis
    # have at least haar_sin_bound(J, L) nonzero coefficients
    A_f = haar2d(J)
    A_g = sinusoid2d(2 ** J, L, include_constant=False)
    bound = haar_sin_bound(J, L)
    rng = np.random.default_rng(10 * J + L)
    count = 100 if (J, L) == (4, 1) else 30
    for _ in range(count):
        v = rng.standard_normal(A_g.m)
        q = A_f.analyze(A_g.synthesize(v))
        assert int(np.sum(np.abs(q) > 1e-10)) >= bound
    # sparse v too, including single atoms
    for k in range(A_g.m):
        e = np.zeros(A_g.m); e[k] = 1.0
        q = A_f.analyze(A_g.synthesize(e))
        assert int(np.sum(np.abs(q) > 1e-10)) >= bound


def test_dictionary_aligned_probes_are_in_domain():
    A_f = haar2d(4)
    A_g = sinusoid2d(16, 2, False)
    rng = np.random.default_rng(4)
    probes = dictionary_aligned_probes(A_f, A_g, 5, rng, scale=50.0)
    recs = verify_normalized_up(A_f, A_g, probes, d_const=1.0)
    assert all(r.in_domain for r in recs)
    assert all(r.passed for r in recs)


def test_random_sparse_probes_shapes():
    rng = np.random.default_rng(5)
    probes = random_sparse_probes(40, 7, 3, rng)
    assert len(probes) == 7
    assert all(int(np.sum(p != 0)) == 3 for p in probes)

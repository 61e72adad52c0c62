from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from sparsesep.dictionaries import haar2d, sinusoid2d
from sparsesep.errors import DomainError, ValidationError
from sparsesep.grid import Grid2
from sparsesep.pde import DiffusionProblem, ring_length, solve_diffusion, trace_from_function
from sparsesep.qpat import (
    GammaVarConfig,
    boundary_family,
    convex_inclusions,
    make_qpat_problem,
    phantom,
    reconstruct_gamma1,
    reconstruct_gammavar,
    shepp_logan,
    smooth_bumps,
    synthesize_data,
)

D32 = 32


def ones(d):
    return Grid2(np.ones((d, d)))


def small_problem(noise_seed=0, noise_level=0.0, n=3, d=D32):
    mu = convex_inclusions(d)
    phis = [boundary_family("gamma1", i, d) for i in range(1, n + 1)]
    return make_qpat_problem(ones(d), mu, ones(d), phis,
                             noise_seed=noise_seed, noise_level=noise_level), mu, phis


# ---------------------------------------------------------------------------
# phantoms

def test_convex_inclusions_component_count():
    g = phantom("convex_inclusions", 128)
    labels, count = ndimage.label(g.values != g.values[0, 0])
    assert count == 3
    assert g.values.min() > 0


def test_shepp_logan_positive_and_range():
    g = phantom("shepp_logan", 64)
    assert g.values.min() > 0
    assert g.values.min() == pytest.approx(1.0)
    assert g.values.max() == pytest.approx(2.0)


def test_smooth_bumps_zero_bumps_is_constant():
    g = smooth_bumps(32, background=1.5, bumps=())
    assert np.all(g.values == 1.5)


def test_phantom_rejects_bad_kind_and_side():
    with pytest.raises(ValidationError):
        phantom("nope", 32)
    with pytest.raises(ValidationError):
        phantom("shepp_logan", 100)


# ---------------------------------------------------------------------------
# boundary families

def test_boundary_family_constant_first():
    tr = boundary_family("gamma1", 1, 16)
    assert tr.shape == (ring_length(16),)
    assert np.all(tr == 1.0)


def test_boundary_family_sine_value():
    # at x1 = 0.25 the second trace equals 1 - sin(pi/2)/4 = 0.75
    d = 17
    tr = boundary_family("gamma1", 2, d)
    ref = trace_from_function(d, lambda x1, x2: 1 - np.sin(2 * np.pi * x1) / 4)
    assert np.allclose(tr, ref)
    assert tr[4] == pytest.approx(0.75)      # bottom row walks x1 = c/(d-1); c=4 is x1=0.25


def test_boundary_family_affine_endpoints():
    d = 9
    tr = boundary_family("gammavar", 4, d)
    assert tr[0] == pytest.approx(7.0 / 8.0)       # x1 = 0
    assert tr[d - 1] == pytest.approx(9.0 / 8.0)   # x1 = 1
    with pytest.raises(ValidationError):
        boundary_family("gammavar", 6, d)


# ---------------------------------------------------------------------------
# data synthesis

def test_synthesize_noise_free_log_identity():
    p, mu, _ = small_problem()
    ms = synthesize_data(p)
    for h, u in zip(ms.h, p.u_true):
        assert np.allclose(h.values, np.log(mu.values) + np.log(u.values), atol=1e-12)
    assert ms.eta == 0.0


def test_synthesize_noise_level_exact():
    p, mu, _ = small_problem(noise_seed=3, noise_level=0.176)
    ms = synthesize_data(p)
    for h, H in zip(ms.h, p.H):
        n = h.values - np.log(H.values)
        ratio = np.linalg.norm(n) / np.linalg.norm(np.log(H.values))
        assert ratio == pytest.approx(0.176, abs=1e-12)
    assert ms.eta > 0


def test_synthesize_deterministic():
    p1, _, _ = small_problem(noise_seed=9, noise_level=0.1)
    p2, _, _ = small_problem(noise_seed=9, noise_level=0.1)
    ms1, ms2 = synthesize_data(p1), synthesize_data(p2)
    for a, b in zip(ms1.h, ms2.h):
        assert np.array_equal(a.values, b.values)


def test_make_problem_rejects_nonpositive_fields():
    d = 16
    bad = Grid2(np.zeros((d, d)))
    phis = [boundary_family("gamma1", 1, d)]
    with pytest.raises(DomainError):
        make_qpat_problem(bad, ones(d), ones(d), phis)


# ---------------------------------------------------------------------------
# constant-Gamma reconstruction

def test_gamma1_separation_consistency():
    # exp(f) * exp(g_i) reproduces H_i within the solver's reported residual
    p, mu, phis = small_problem()
    ms = synthesize_data(p)
    res = reconstruct_gamma1(ms, (haar2d(5), sinusoid2d(D32, 4, True)), budget=250,
                             mu_true=mu, boundary_values=phis)
    for i, (H, u) in enumerate(zip(p.H, res.u)):
        fit = res.mu.values * u.values
        gap = np.linalg.norm(np.log(fit) - np.log(H.values))
        assert gap <= res.report.residuals[-1] + 1e-9
    assert res.error is not None


def test_gamma1_scale_shift_moves_products_by_log_c():
    # scaling every H_i by c shifts each reconstructed product by exactly log c
    # (within the two solvers' residuals); the split itself may differ
    p, mu, phis = small_problem(n=2)
    ms = synthesize_data(p)
    dicts = (haar2d(5), sinusoid2d(D32, 4, True))
    c = 1.7
    scaled = type(ms)(tuple(Grid2(h.values + np.log(c)) for h in ms.h))
    r1 = reconstruct_gamma1(ms, dicts, budget=250)
    r2 = reconstruct_gamma1(scaled, dicts, budget=250)
    for u1, u2 in zip(r1.u, r2.u):
        prod1 = np.log(r1.mu.values) + np.log(u1.values)
        prod2 = np.log(r2.mu.values) + np.log(u2.values)
        tol = r1.report.residuals[-1] + r2.report.residuals[-1] + 1e-9
        assert np.linalg.norm(prod2 - prod1 - np.log(c)) <= tol


def test_gamma1_boundary_pinning_fixes_gauge():
    # with traces supplied, each log u_i matches log phi_i on the ring in the mean
    p, mu, phis = small_problem()
    ms = synthesize_data(p)
    res = reconstruct_gamma1(ms, (haar2d(5), sinusoid2d(D32, 4, True)), budget=250,
                             boundary_values=phis)
    from sparsesep.pde import ring_coords
    rows, cols = ring_coords(D32)
    gaps = [np.mean(np.log(tr) - np.log(u.values[rows, cols]))
            for tr, u in zip(phis, res.u)]
    assert abs(float(np.mean(gaps))) < 1e-10


def test_problem_rejects_nan_noise_level():
    with pytest.raises(ValidationError):
        small_problem(noise_level=float("nan"), n=1, d=8)


def test_gamma1_rejects_mismatched_dictionary():
    p, mu, phis = small_problem()
    ms = synthesize_data(p)
    with pytest.raises(ValidationError):
        reconstruct_gamma1(ms, (haar2d(4), sinusoid2d(16, 3, True)), budget=10)


# ---------------------------------------------------------------------------
# variable-Gamma pipeline

def gammavar_setup(d=D32, mu0_is_truth=False):
    mu = convex_inclusions(d)
    gamma = smooth_bumps(d, bumps=((0.40, 0.40, 0.18, 0.4),))
    D_true = smooth_bumps(d, bumps=((0.62, 0.64, 0.20, 0.5),))
    phis = [boundary_family("gammavar", i, d) for i in range(1, 6)]
    p = make_qpat_problem(gamma, mu, D_true, phis)
    cfg = GammaVarConfig(
        mu0=mu if mu0_is_truth else ones(d),
        anchor=((d // 2, d // 2), float(D_true.values[d // 2, d // 2])),
        budget_step1=250,
        budget_step3=250,
        outer_iterations=2,
    )
    return p, cfg, mu, D_true


def test_gammavar_fixed_point_of_truth():
    # Gamma = 1, D = 1 (warm-started), mu0 = truth: the reference solutions
    # equal the true intensities, so the data-implied ratios are constant and
    # the absorption stays at discretization distance from the truth
    d = D32
    mu = convex_inclusions(d)
    phis = [boundary_family("gammavar", i, d) for i in range(1, 6)]
    p = make_qpat_problem(ones(d), mu, ones(d), phis)
    cfg = GammaVarConfig(
        mu0=mu,
        anchor=((d // 2, d // 2), 1.0),
        budget_step1=250, budget_step3=250,
        outer_iterations=1,
        initial_D=ones(d),
    )
    res = reconstruct_gammavar(p, (haar2d(5), sinusoid2d(d, 4, True)), cfg)
    assert res.ratio_history[0] < 0.02
    assert res.mu_errors[-1] < 0.15
    assert np.abs(res.D.values[4:-4, 4:-4] - 1.0).max() < 0.1


def test_gammavar_zero_outer_iterations_returns_baseline():
    p, cfg, mu, D_true = gammavar_setup()
    cfg0 = GammaVarConfig(
        mu0=cfg.mu0, anchor=cfg.anchor, budget_step1=cfg.budget_step1,
        budget_step3=cfg.budget_step3, outer_iterations=0, initial_D=D_true)
    res = reconstruct_gammavar(p, (haar2d(5), sinusoid2d(D32, 4, True)), cfg0)
    assert res.mu is res.mu_baseline
    assert res.D is res.D_initial
    assert res.ratio_history == ()
    assert len(res.mu_errors) == 1


def test_gammavar_config_validation():
    with pytest.raises(ValidationError):
        GammaVarConfig(mu0=ones(8), anchor=((0, 0), 1.0), budget_step1=10,
                       budget_step3=10, outer_iterations=-1)


def test_gammavar_outer_pass_takes_forward_solutions():
    # one pass: the intensities are the forward solutions of (D_initial, mu0)
    p, cfg, mu, D_true = gammavar_setup()
    cfg = replace(cfg, outer_iterations=1)
    res = reconstruct_gammavar(p, (haar2d(5), sinusoid2d(D32, 4, True)), cfg)
    mu_pde = Grid2(np.maximum(cfg.mu0.values, 0.0))
    assert len(res.u) == len(p.phis)
    for u, phi in zip(res.u, p.phis):
        ref = solve_diffusion(DiffusionProblem(res.D_initial, mu_pde, phi))
        assert np.array_equal(u.values, ref.values)


def test_gammavar_budget_step3_has_no_effect():
    p, cfg, mu, D_true = gammavar_setup()
    dicts = (haar2d(5), sinusoid2d(D32, 4, True))
    r1 = reconstruct_gammavar(p, dicts, replace(cfg, outer_iterations=1))
    r2 = reconstruct_gammavar(p, dicts, replace(cfg, outer_iterations=1, budget_step3=7))
    assert np.array_equal(r1.mu.values, r2.mu.values)
    assert np.array_equal(r1.D.values, r2.D.values)
    for a, b in zip(r1.u, r2.u, strict=True):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("band", [-2, 16, 40])
def test_gammavar_rejects_boundary_band_outside_half_side(band):
    p, cfg, mu, D_true = gammavar_setup()
    with pytest.raises(ValidationError, match="boundary_band"):
        reconstruct_gammavar(p, (haar2d(5), sinusoid2d(D32, 4, True)),
                             replace(cfg, boundary_band=band))

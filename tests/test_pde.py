import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sparsesep
from sparsesep.errors import ConditioningError, DomainError, SolverError, ValidationError
from sparsesep.grid import Grid2, grad_forward
from sparsesep.pde import (
    DiffusionProblem,
    _solve_interior,
    div_adjoint,
    grid_with_trace,
    integrate_gradient_field,
    ratio_independence,
    recover_log_D,
    recover_mu,
    ring_coords,
    ring_length,
    solve_diffusion,
    trace_from_function,
)
from sparsesep.qpat import boundary_family, convex_inclusions, smooth_bumps


def unit_grid(d, value=1.0):
    return Grid2(np.full((d, d), float(value)))


def coords(d):
    ax = np.arange(d) / (d - 1.0)
    return np.meshgrid(ax, ax)  # X1 along columns, X2 along rows


# ---------------------------------------------------------------------------
# boundary traces

def test_ring_walk_covers_boundary_once():
    d = 9
    rows, cols = ring_coords(d)
    assert rows.size == ring_length(d) == 4 * (d - 1)
    assert len({(r, c) for r, c in zip(rows, cols)}) == rows.size
    on_ring = (rows == 0) | (rows == d - 1) | (cols == 0) | (cols == d - 1)
    assert on_ring.all()


def test_trace_round_trip():
    d = 8
    X1, X2 = coords(d)
    g = Grid2(X1 + 2 * X2)
    tr = g.values[ring_coords(d)]
    tr2 = trace_from_function(d, lambda x1, x2: x1 + 2 * x2)
    assert np.allclose(tr, tr2)


# ---------------------------------------------------------------------------
# forward solver

def test_constants_are_harmonic():
    d = 17
    phi = np.full(ring_length(d), 3.5)
    u = solve_diffusion(DiffusionProblem(unit_grid(d), Grid2(np.zeros((d, d))), phi))
    assert np.abs(u.values - 3.5).max() < 1e-9


def test_bilinear_exact_for_laplacian():
    # u = 1 + x1 x2 / 4 is harmonic and in the stencil's exact space
    d = 17
    X1, X2 = coords(d)
    exact = 1 + X1 * X2 / 4
    phi = trace_from_function(d, lambda x1, x2: 1 + x1 * x2 / 4)
    u = solve_diffusion(DiffusionProblem(unit_grid(d), Grid2(np.zeros((d, d))), phi))
    assert np.abs(u.values - exact).max() < 1e-9


def manufactured_error(d):
    # u = cosh(x1) + cosh(x2) solves -Delta u + u = 0 exactly with mu = 1
    X1, X2 = coords(d)
    exact = np.cosh(X1) + np.cosh(X2)
    phi = trace_from_function(d, lambda x1, x2: np.cosh(x1) + np.cosh(x2))
    u = solve_diffusion(DiffusionProblem(unit_grid(d), unit_grid(d), phi))
    return np.abs(u.values - exact).max()


def test_manufactured_solution_second_order():
    errs = [manufactured_error(d) for d in (17, 33, 65)]
    for a, b in zip(errs, errs[1:]):
        assert 3.0 <= a / b <= 5.0


def test_dense_lu_oracle_agreement():
    # mu = 1, D = 1, phi = 1 at d = 33 against a dense solve of the same system
    d = 33
    h2 = (1.0 / (d - 1)) ** 2
    m = d - 2
    n = m * m
    A = np.zeros((n, n))
    b = np.zeros(n)
    idx = lambda r, c: r * m + c
    for r in range(m):
        for c in range(m):
            k = idx(r, c)
            A[k, k] = 4.0 / h2 + 1.0
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < m and 0 <= cc < m:
                    A[k, idx(rr, cc)] = -1.0 / h2
                else:
                    b[k] += 1.0 / h2
    dense = np.linalg.solve(A, b).reshape(m, m)
    phi = np.ones(ring_length(d))
    u = solve_diffusion(DiffusionProblem(unit_grid(d), unit_grid(d), phi))
    assert np.abs(u.values[1:-1, 1:-1] - dense).max() < 1e-8


def dense_five_point(Dv, muv, phi):
    """Dense 5-point system with the solver's harmonic-face stencil, Dirichlet
    data eliminated; returns (A, b) over the interior in row-major order."""
    d = Dv.shape[0]
    h2 = (1.0 / (d - 1)) ** 2
    m = d - 2
    harm = lambda a, b: 2 * a * b / (a + b)
    full = np.zeros((d, d))
    rows, cols = ring_coords(d)
    full[rows, cols] = phi
    A = np.zeros((m * m, m * m))
    b = np.zeros(m * m)
    for r in range(1, d - 1):
        for c in range(1, d - 1):
            k = (r - 1) * m + (c - 1)
            for (rr, cc) in ((r, c + 1), (r, c - 1), (r + 1, c), (r - 1, c)):
                w = harm(Dv[r, c], Dv[rr, cc]) / h2
                A[k, k] += w
                if 1 <= rr <= d - 2 and 1 <= cc <= d - 2:
                    A[k, (rr - 1) * m + (cc - 1)] -= w
                else:
                    b[k] += w * full[rr, cc]
            A[k, k] += muv[r, c]
    return A, b


def test_variable_coefficient_dense_oracle():
    rng = np.random.default_rng(0)
    d = 9
    Dv = 1.0 + rng.random((d, d))
    muv = rng.random((d, d))
    phi = 1.0 + 0.2 * rng.random(ring_length(d))
    u = solve_diffusion(DiffusionProblem(Grid2(Dv), Grid2(muv), phi))
    A, b = dense_five_point(Dv, muv, phi)
    dense = np.linalg.solve(A, b).reshape(d - 2, d - 2)
    assert np.abs(u.values[1:-1, 1:-1] - dense).max() < 1e-8


def disc_and_bump(d, contrast):
    """A smooth bump plus a disc of conductivity ``contrast`` times the rest."""
    X1, X2 = coords(d)
    disc = (X1 - 0.35) ** 2 + (X2 - 0.6) ** 2 < 0.2 ** 2
    return (1.0 + 0.5 * np.exp(-((X1 - 0.6) ** 2 + (X2 - 0.4) ** 2) / 0.05)) * np.where(disc, contrast, 1.0)


@pytest.mark.parametrize("d", [3, 17, 33])
def test_preconditioned_solve_matches_dense_system(d):
    # Variable D with a 10x jump and variable mu: the preconditioner is the
    # constant-coefficient Laplacian, so this is where it is furthest off.
    X1, X2 = coords(d)
    Dv = disc_and_bump(d, 10.0)
    muv = 0.5 + 2.0 * (X1 > 0.5) + X2
    phi = 1.0 + 0.5 * np.sin(np.arange(ring_length(d)))
    u = solve_diffusion(DiffusionProblem(Grid2(Dv), Grid2(muv), phi))
    A, b = dense_five_point(Dv, muv, phi)
    dense = np.linalg.solve(A, b).reshape(d - 2, d - 2)
    assert np.linalg.norm(u.values[1:-1, 1:-1] - dense) <= 1e-10 * np.linalg.norm(dense)
    assert np.array_equal(u.values[ring_coords(d)], phi)


def test_unreachable_tolerance_raises_solver_error():
    # A 10^6 conductivity jump: the recurrence converges but the recomputed
    # residual stays above the tolerance, which must surface, not be returned.
    d = 128
    problem = DiffusionProblem(Grid2(disc_and_bump(d, 1e6)), unit_grid(d), np.ones(ring_length(d)))
    with pytest.raises(SolverError, match="relative residual"):
        solve_diffusion(problem)


@pytest.mark.parametrize("contrast, most", [(2.0, 15), (10.0, 33), (100.0, 63), (None, 9)])
def test_cg_iterations_at_128(contrast, most):
    # The iteration counts of the double-precision preconditioner on these
    # problems: a change to the preconditioner must not cost iterations.
    d = 128
    X1, _ = coords(d)
    Dv = smooth_bumps(d).values if contrast is None else disc_and_bump(d, contrast)
    u = grid_with_trace(d, 1.0 + 0.1 * np.cos(np.arange(ring_length(d))))
    assert _solve_interior(Dv, 1.0 + X1, u) <= most


def test_discrete_maximum_principle():
    rng = np.random.default_rng(1)
    d = 17
    for _ in range(5):
        Dv = Grid2(0.5 + rng.random((d, d)))
        muv = Grid2(rng.random((d, d)))
        phi = 0.5 + rng.random(ring_length(d))
        u = solve_diffusion(DiffusionProblem(Dv, muv, phi))
        assert u.values.max() <= phi.max() + 1e-12
        assert u.values.min() > 0.0


def test_problem_validation():
    d = 8
    with pytest.raises(ValidationError):
        DiffusionProblem(Grid2(np.zeros((d, d))), unit_grid(d), np.ones(ring_length(d)))
    with pytest.raises(ValidationError):
        DiffusionProblem(unit_grid(d), Grid2(-np.ones((d, d))), np.ones(ring_length(d)))
    with pytest.raises(ValidationError):
        DiffusionProblem(unit_grid(d), unit_grid(d), np.ones(3))


def test_problem_without_interior_is_rejected():
    with pytest.raises(ValidationError, match="no interior pixel"):
        DiffusionProblem(unit_grid(2), unit_grid(2), np.ones(ring_length(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_phi(bad):
    # A nan in phi ran CG to its iteration cap and came out as SolverError;
    # an inf failed only after the solve, on the Grid2 of the solution.
    d = 8
    phi = np.ones(ring_length(d))
    phi[5] = bad
    with pytest.raises(ValidationError, match="phi must be finite"):
        DiffusionProblem(unit_grid(d), unit_grid(d), phi)


# ---------------------------------------------------------------------------
# adjoint pair and integration

def test_div_is_negative_adjoint_of_grad():
    rng = np.random.default_rng(2)
    d, h = 17, 1.0 / 16
    for _ in range(5):
        w = rng.standard_normal((d, d))
        px = rng.standard_normal((d, d - 1))
        py = rng.standard_normal((d - 1, d))
        gx, gy = grad_forward(w, h)
        lhs = np.sum(gx * px) + np.sum(gy * py)
        rhs = -np.sum(w * div_adjoint(px, py, h))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_integrate_zero_field_gives_constant():
    d, h = 12, 1.0 / 11
    w = integrate_gradient_field(np.zeros((d, d)), np.zeros((d, d)), ((3, 4), np.log(2.0)), h)
    assert np.abs(np.exp(w) - 2.0).max() < 1e-12


def test_integrate_recovers_smooth_potential():
    d, h = 33, 1.0 / 32
    X1, X2 = coords(d)
    w_true = np.sin(X1) + 0.5 * X2 ** 2
    g1 = np.cos(X1)
    g2 = X2
    w = integrate_gradient_field(g1, g2, ((0, 0), w_true[0, 0]), h)
    assert np.abs(w - w_true).max() < 5e-3   # second-order edge averaging at h = 1/32


@pytest.mark.parametrize("d", [2, 8, 16])
def test_integrate_matches_anchored_least_squares(d):
    # The edge system: one forward difference per edge against the field
    # averaged onto that edge; lstsq gives its minimum-norm solution.
    rng = np.random.default_rng(d)
    h = 1.0 / (d - 1)
    f1, f2 = rng.standard_normal((2, d, d))
    idx = np.arange(d * d).reshape(d, d)
    rows = []
    for lo, hi in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        G = np.zeros((lo.size, d * d))
        G[np.arange(lo.size), hi.ravel()] = 1.0 / h
        G[np.arange(lo.size), lo.ravel()] = -1.0 / h
        rows.append(G)
    rhs = np.concatenate([(0.5 * (f1[:, :-1] + f1[:, 1:])).ravel(),
                          (0.5 * (f2[:-1, :] + f2[1:, :])).ravel()])
    ref = np.linalg.lstsq(np.vstack(rows), rhs, rcond=None)[0].reshape(d, d)
    anchor = ((d - 1, d // 2), 0.75)
    ref += 0.75 - ref[d - 1, d // 2]
    w = integrate_gradient_field(f1, f2, anchor, h)
    assert np.abs(w - ref).max() <= 1e-10 * np.abs(ref).max()
    assert w[d - 1, d // 2] == 0.75


@pytest.mark.parametrize("anchor", [((-1, 0), 0.0), ((12, 0), 0.0), ((0, 12), 0.0),
                                    ((3, 2.5), 0.0), ((3, 4), np.nan), ((3, 4), np.inf)],
                         ids=["row_minus_one", "row_d", "col_d", "col_not_integer",
                              "nan_value", "inf_value"])
def test_integrate_rejects_anchor_outside_grid_or_not_finite(anchor):
    d = 12
    with pytest.raises(ValidationError, match="anchor"):
        integrate_gradient_field(np.zeros((d, d)), np.zeros((d, d)), anchor, 1.0 / (d - 1))


_NAN_FIELD = np.zeros((4, 4))
_NAN_FIELD[1, 2] = np.nan


@pytest.mark.parametrize("f1, f2, match", [
    (np.zeros((4, 5)), np.zeros((4, 5)), "square"),
    (np.zeros((4, 4)), np.zeros((5, 5)), "one shape"),
    (np.zeros(16), np.zeros(16), "square"),
    (np.zeros((1, 1)), np.zeros((1, 1)), ">= 2"),
    (_NAN_FIELD, np.zeros((4, 4)), "finite"),
    (np.zeros((4, 4)), np.full((4, 4), np.inf), "finite"),
], ids=["not_square", "shapes_differ", "one_dimensional", "side_one", "nan_in_f1", "inf_in_f2"])
def test_integrate_rejects_bad_fields(f1, f2, match):
    with pytest.raises(ValidationError, match=match):
        integrate_gradient_field(f1, f2, ((0, 0), 0.0), 1.0 / 3)


# ---------------------------------------------------------------------------
# recover_log_D

def _forward_set(D, mu, traces):
    return [solve_diffusion(DiffusionProblem(D, mu, t)) for t in traces]


def test_recover_log_D_unit_truth():
    d = 65
    X1, X2 = coords(d)
    mu = Grid2(1.0 + 0.8 * np.exp(-((X1 - 0.5) ** 2 + (X2 - 0.45) ** 2) / 0.03))
    traces = [
        trace_from_function(d, lambda x1, x2: np.ones_like(x1)),
        trace_from_function(d, lambda x1, x2: x1 / 4 + 7 / 8),
        trace_from_function(d, lambda x1, x2: x2 / 4 + 7 / 8),
    ]
    u1, u2, u3 = _forward_set(unit_grid(d), mu, traces)
    Drec = recover_log_D(u1, u2, u3, ((d // 2, d // 2), 1.0))
    interior = Drec.values[2:-2, 2:-2]
    assert np.abs(interior - 1.0).max() < 0.02


def test_recover_log_D_smooth_truth():
    d = 128
    X1, X2 = coords(d)
    D_true = Grid2(1.0 + 0.5 * np.exp(-((X1 - 0.55) ** 2 + (X2 - 0.5) ** 2) / (2 * 0.2 ** 2)))
    mu = Grid2(np.full((d, d), 1.0))
    traces = [
        trace_from_function(d, lambda x1, x2: np.ones_like(x1)),
        trace_from_function(d, lambda x1, x2: x1 / 4 + 7 / 8),
        trace_from_function(d, lambda x1, x2: x2 / 4 + 7 / 8),
    ]
    u1, u2, u3 = _forward_set(D_true, mu, traces)
    anchor_pix = (d // 2, d // 2)
    Drec = recover_log_D(u1, u2, u3, (anchor_pix, float(D_true.values[anchor_pix])))
    band = 4
    rel = np.abs(Drec.values - D_true.values)[band:-band, band:-band] / D_true.values[band:-band, band:-band]
    assert rel.max() < 0.05


def test_recover_log_D_conditioning_error():
    d = 17
    ones = unit_grid(d)
    phi = np.ones(ring_length(d))
    u = solve_diffusion(DiffusionProblem(ones, ones, phi))
    # identical solutions have zero ratio gradients everywhere
    with pytest.raises(ConditioningError):
        recover_log_D(u, u, u, ((3, 3), 1.0))


def test_recover_log_D_rejects_grid_without_interior():
    u = unit_grid(2)
    with pytest.raises(ValidationError, match="at least 3"):
        recover_log_D(u, u, u, ((0, 0), 1.0))


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_recover_log_D_rejects_bad_anchor_value(value):
    d = 17
    ones = unit_grid(d)
    u = solve_diffusion(DiffusionProblem(ones, ones, np.ones(ring_length(d))))
    with pytest.raises(ValidationError, match="anchor value must be positive and finite"):
        recover_log_D(u, u, u, ((3, 3), value))


# ---------------------------------------------------------------------------
# recover_mu

def test_recover_mu_self_consistency():
    d = 65
    X1, X2 = coords(d)
    mu = Grid2(1.0 + 0.6 * np.exp(-((X1 - 0.4) ** 2 + (X2 - 0.55) ** 2) / 0.02))
    traces = [
        trace_from_function(d, lambda x1, x2: np.ones_like(x1)),
        trace_from_function(d, lambda x1, x2: 1 - np.sin(2 * np.pi * x1) / 4),
    ]
    us = _forward_set(unit_grid(d), mu, traces)
    rec = recover_mu(unit_grid(d), us, boundary_band=4, mu_background=mu)
    band = 4
    err = np.abs(rec.values - mu.values)[band:-band, band:-band].max()
    assert err < 0.02


def test_recover_mu_constant_solution_gives_zero():
    d = 17
    u = unit_grid(d, 2.5)
    X1, X2 = coords(d)
    D = Grid2(1.0 + 0.3 * X1 + 0.1 * X2 * X2)
    rec = recover_mu(D, [u])
    assert np.abs(rec.values).max() < 1e-10


def test_recover_mu_duplicates_average_to_same():
    d = 17
    X1, X2 = coords(d)
    u = Grid2(1.0 + 0.2 * X1 + 0.3 * X2 ** 2)
    D = unit_grid(d)
    one = recover_mu(D, [u]).values
    two = recover_mu(D, [u, u]).values
    assert np.array_equal(one, two)


def test_recover_mu_rejects_nonpositive_u():
    d = 8
    bad = Grid2(np.full((d, d), -1.0))
    with pytest.raises(DomainError):
        recover_mu(unit_grid(d), [bad])


def test_recover_mu_band_requires_background():
    d = 8
    u = unit_grid(d)
    with pytest.raises(ValidationError):
        recover_mu(unit_grid(d), [u], boundary_band=2)


def test_recover_mu_inverts_the_forward_solve():
    # The inverse step applies the solver's own operator, so exact forward
    # solutions give mu back to CG tolerance, discontinuities included.
    d = 64
    mu = convex_inclusions(d)
    D = smooth_bumps(d, bumps=((0.55, 0.45, 0.2, 0.4),))
    us = _forward_set(D, mu, [boundary_family("gammavar", i, d) for i in range(1, 6)])
    rec = recover_mu(D, us, boundary_band=1, mu_background=mu)
    assert np.abs(rec.values - mu.values).max() <= 1e-5


def test_recover_mu_ring_copies_nearest_interior_pixel():
    d = 9
    X1, X2 = coords(d)
    u = Grid2(1.0 + 0.2 * X1 ** 3 + 0.3 * np.sin(3 * X2))
    rec = recover_mu(unit_grid(d), [u]).values
    assert np.array_equal(rec, np.pad(rec[1:-1, 1:-1], 1, mode="edge"))


@pytest.mark.parametrize("D_side, u_side, bg_side", [(8, 16, None), (16, 8, None), (8, 8, 4), (2, 2, None)])
def test_recover_mu_rejects_mismatched_sides(D_side, u_side, bg_side):
    bg = 1.0 if bg_side is None else unit_grid(bg_side)
    with pytest.raises(ValidationError, match="side length"):
        recover_mu(unit_grid(D_side), [unit_grid(u_side)], boundary_band=1, mu_background=bg)


@pytest.mark.parametrize("band", [-1, 4, 9])
def test_recover_mu_rejects_band_outside_half_side(band):
    d = 8
    with pytest.raises(ValidationError, match="boundary_band"):
        recover_mu(unit_grid(d), [unit_grid(d)], boundary_band=band, mu_background=1.0)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_recover_mu_rejects_nonpositive_D(value):
    d = 8
    with pytest.raises(DomainError, match="D must be strictly positive"):
        recover_mu(unit_grid(d, value), [unit_grid(d)])


# ---------------------------------------------------------------------------
# ratio independence

def test_ratio_independence_trivial_cases():
    d = 16
    u = unit_grid(d, 2.0)
    assert ratio_independence([u], [u]) == 0.0
    assert ratio_independence([u, u], [u, u]) == 0.0


def test_ratio_independence_detects_differences():
    d = 16
    X1, X2 = coords(d)
    base = unit_grid(d)
    u1 = Grid2(1.0 + 0.1 * X1)
    u2 = Grid2(1.0 + 0.1 * X2)
    val = ratio_independence([u1, u2], [base, base])
    assert val > 0.0
    assert val == pytest.approx(np.linalg.norm(0.1 * X1 - 0.1 * X2) / np.linalg.norm(u1.values))


# ---------------------------------------------------------------------------
# footprint

def traced_peak_mb(fn, *args):
    """Peak traced allocation of one call, after a first call fills the caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_solve_footprint_at_256():
    d = 256
    X1, X2 = coords(d)
    phi = 1.0 + 0.1 * np.cos(np.arange(ring_length(d)))
    problem = DiffusionProblem(Grid2(disc_and_bump(d, 2.0)), Grid2(1.0 + X1), phi)
    assert traced_peak_mb(solve_diffusion, problem) <= 8.0


def _inverse_footprint_inputs(d=256):
    D = smooth_bumps(d, bumps=((0.5, 0.5, 0.2, 0.45),))
    us = _forward_set(D, convex_inclusions(d), [boundary_family("gammavar", i, d) for i in (1, 4, 5)])
    return D, us


def test_recover_log_D_footprint_at_256():
    D, (u1, u2, u3) = _inverse_footprint_inputs()
    assert traced_peak_mb(recover_log_D, u1, u2, u3, ((128, 128), float(D.values[128, 128]))) <= 6.0


def test_recover_mu_footprint_at_256():
    D, us = _inverse_footprint_inputs()
    assert traced_peak_mb(lambda: recover_mu(D, us, boundary_band=4, mu_background=1.0)) <= 4.0


def test_integrate_footprint_at_256():
    d = 256
    f1, f2 = np.random.default_rng(3).standard_normal((2, d, d))
    assert traced_peak_mb(integrate_gradient_field, f1, f2, ((5, 7), 0.0), 1.0 / (d - 1)) <= 3.0


def test_import_leaves_heavy_scipy_modules_out():
    # scipy loads on first use only: its BLAS in the pursuit's refit,
    # scipy.ndimage in the smoothed inverse steps.
    code = ("import sys, sparsesep, sparsesep.pde, sparsesep.qpat, sparsesep.cli; "
            "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparsesep.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []

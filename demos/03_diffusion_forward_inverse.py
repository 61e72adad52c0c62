"""Forward diffusion solves and the two inverse sub-steps.

Checks second-order convergence of the 5-point solver on a manufactured
solution, then recovers the diffusion coefficient from three solutions with
gradient-independent boundary data, and the absorption from the averaged
pointwise formula.
"""

import numpy as np

from sparsesep.grid import Grid2
from sparsesep.pde import (
    DiffusionProblem,
    recover_log_D,
    recover_mu,
    solve_diffusion,
    trace_from_function,
)


def coords(d):
    ax = np.arange(d) / (d - 1.0)
    return np.meshgrid(ax, ax)


# --- convergence of the forward solver on u = cosh(x1) + cosh(x2), mu = 1
print("manufactured-solution sweep (-Delta u + u = 0):")
prev = None
for d in (17, 33, 65):
    X1, X2 = coords(d)
    exact = np.cosh(X1) + np.cosh(X2)
    ones = Grid2(np.ones((d, d)))
    phi = trace_from_function(d, lambda x1, x2: np.cosh(x1) + np.cosh(x2))
    u = solve_diffusion(DiffusionProblem(ones, ones, phi))
    err = np.abs(u.values - exact).max()
    ratio = "" if prev is None else f"  (x{prev / err:.2f} smaller)"
    print(f"  d={d:3d}: max error {err:.3e}{ratio}")
    prev = err

# --- diffusion recovery from three solutions
d = 65
X1, X2 = coords(d)
D_true = Grid2(1.0 + 0.5 * np.exp(-((X1 - 0.55) ** 2 + (X2 - 0.5) ** 2) / 0.08))
mu_true = Grid2(1.0 + 0.6 * np.exp(-((X1 - 0.4) ** 2 + (X2 - 0.55) ** 2) / 0.02))
traces = [
    trace_from_function(d, lambda x1, x2: np.ones_like(x1)),
    trace_from_function(d, lambda x1, x2: x1 / 4 + 7 / 8),
    trace_from_function(d, lambda x1, x2: x2 / 4 + 7 / 8),
]
us = [solve_diffusion(DiffusionProblem(D_true, mu_true, t)) for t in traces]
anchor = ((d // 2, d // 2), float(D_true.values[d // 2, d // 2]))
D_rec = recover_log_D(us[0], us[1], us[2], anchor)
rel = np.abs(D_rec.values - D_true.values)[3:-3, 3:-3] / D_true.values[3:-3, 3:-3]
print(f"\ndiffusion recovery from 3 solutions: interior max rel error {rel.max():.2%}")

# --- absorption from the averaged pointwise formula, with the forward solver's
#     own 5-point operator: exact solutions give mu back to CG tolerance
mu_rec = recover_mu(D_true, us, boundary_band=4, mu_background=mu_true)
err = np.abs(mu_rec.values - mu_true.values)[4:-4, 4:-4].max()
print(f"absorption recovery (exact inputs):  interior max error {err:.2e}")
print("\nBoth inverse steps reduce to pointwise arithmetic plus one anchored Poisson solve.")

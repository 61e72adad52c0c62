"""Variable-Gamma reconstruction: separation + diffusion model together.

When the detection efficiency Gamma varies in space, the data H = Gamma*mu*u
cannot identify mu by separation alone (only the product Gamma*mu splits
off).  The iterative pipeline recovers the intensities u_i by separation,
the diffusion coefficient D from ratio gradients of three measurements, and
then the absorption pointwise from the PDE.  Each outer pass solves the
forward problem with the current D and mu for every illumination, refreshes
D from the data ratios on those solutions, and refreshes mu.
"""

import numpy as np

from sparsesep import haar2d, sinusoid2d
from sparsesep.grid import Grid2
from sparsesep.qpat import (
    GammaVarConfig,
    boundary_family,
    convex_inclusions,
    make_qpat_problem,
    reconstruct_gammavar,
    smooth_bumps,
)

d, J, L = 64, 6, 8
mu_true = convex_inclusions(d)
gamma = smooth_bumps(d, bumps=((0.40, 0.40, 0.18, 0.4),))
D_true = smooth_bumps(d, bumps=((0.62, 0.64, 0.20, 0.5),))
phis = [boundary_family("gammavar", i, d) for i in range(1, 6)]
problem = make_qpat_problem(gamma, mu_true, D_true, phis)

cfg = GammaVarConfig(
    mu0=Grid2(np.ones((d, d))),
    anchor=((d // 2, d // 2), float(D_true.values[d // 2, d // 2])),
    budget_step1=1500,
    outer_iterations=2,
)
res = reconstruct_gammavar(problem, (haar2d(J), sinusoid2d(d, L, True)), cfg)
mu0_err = np.linalg.norm(cfg.mu0.values - mu_true.values) / np.linalg.norm(mu_true.values)

print("relative L2 errors against the ground truth:")
print(f"  absorption, the constant initial guess mu0:           {mu0_err:.1%}")
print(f"  absorption, pointwise formula right after separation: {res.mu_errors[0]:.1%}")
for k, err in enumerate(res.mu_errors[1:], start=1):
    print(f"  absorption after outer pass {k}:                        {err:.1%}")
print(f"  diffusion coefficient, initial estimate:              {res.D_errors[0]:.1%}")
print(f"  diffusion coefficient, final (interior):              {res.D_errors[-1]:.1%}")
print("ratio-independence diagnostic per pass:", [f"{r:.3f}" for r in res.ratio_history])
print("\nThe outer passes turn an unusable pointwise estimate into one of the size of")
print("the constant guess mu0, but not below it: single-wavelength data do not")
print("determine D, mu and Gamma together, so mu is not recovered yet.")

"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run from the repository root with ``python -m pytest benchmark``.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sparsesep import io, pde, qpat  # noqa: E402
from sparsesep.grid import Grid2  # noqa: E402

from checks import (  # noqa: E402
    EXACT_TOL,
    RESIDUAL_TOL,
    five_point_residual,
    rg2_round_trip_ok,
    separation_error,
    strictly_decreasing,
)


def test_perturbed_interior_value_fails_five_point_residual():
    d = 32
    D = qpat.smooth_bumps(d, bumps=((0.5, 0.5, 0.2, 0.45),))
    mu = qpat.convex_inclusions(d)
    u = pde.solve_diffusion(pde.DiffusionProblem(D, mu, qpat.boundary_family("gammavar", 4, d)))
    assert five_point_residual(D.values, mu.values, u.values) <= RESIDUAL_TOL
    bad = u.values.copy()
    bad[d // 2, d // 3] *= 1.0 + 1e-6
    assert five_point_residual(D.values, mu.values, bad) > RESIDUAL_TOL


def test_swapping_f_and_g1_fails_exact_recovery():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(64)
    gs = [rng.standard_normal(64) for _ in range(3)]
    assert separation_error(f, gs, f, gs) <= EXACT_TOL
    swapped = [f] + gs[1:]
    assert separation_error(gs[0], swapped, f, gs) > EXACT_TOL


def test_reversed_error_sequence_fails_monotonicity():
    errors = [0.366, 0.161, 0.097, 0.092, 0.082]
    assert strictly_decreasing(errors)
    assert not strictly_decreasing(errors[::-1])


def test_flipped_byte_fails_rg2_round_trip(tmp_path):
    grid = Grid2(np.random.default_rng(1).uniform(0.5, 2.0, (8, 8)))
    path = str(tmp_path / "g.rg2")
    io.write_rg2(path, grid)
    raw = open(path, "rb").read()
    assert len(raw) == 16 + 8 * 8 * 8
    assert rg2_round_trip_ok(raw, grid.values, io.read_rg2(path).values)
    for offset in (1, 16 + 8 * 20 + 3):
        flipped = bytearray(raw)
        flipped[offset] ^= 0x01
        assert not rg2_round_trip_ok(bytes(flipped), grid.values, grid.values)
    body = bytearray(raw)
    body[16 + 8 * 20 + 3] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(body)
    assert not rg2_round_trip_ok(raw, grid.values, io.read_rg2(path).values)

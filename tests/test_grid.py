import numpy as np
import pytest

from sparsesep.errors import DomainError, ValidationError
from sparsesep.grid import (
    CoeffBlock,
    Grid2,
    MeasurementSet,
    from_log,
    grid_from_signal,
    l0_norm,
    relative_log_error,
    to_log,
)


def test_grid2_validates_shape():
    with pytest.raises(ValidationError):
        Grid2(np.zeros((4, 5)))
    with pytest.raises(ValidationError):
        Grid2(np.zeros(16))
    with pytest.raises(ValidationError):
        Grid2(np.full((4, 4), np.nan))


def test_grid2_immutable():
    g = Grid2(np.ones((4, 4)))
    with pytest.raises(ValueError):
        g.values[0, 0] = 2.0


def test_ravel_convention_row_major():
    # pixel (a1, a2) lives at values[a2-1, a1-1]; flattened index (a2-1)*d + a1-1
    v = np.arange(16.0).reshape(4, 4)
    g = Grid2(v)
    assert g.ravel()[1 * 4 + 2] == v[1, 2]
    assert grid_from_signal(g.ravel()).values[3, 1] == v[3, 1]


def test_l0_norm_zero_and_single():
    assert l0_norm(CoeffBlock(np.zeros(8), (np.zeros(5), np.zeros(5)))) == 0
    e3 = np.zeros(8)
    e3[3] = 1.0
    assert l0_norm(CoeffBlock(e3, ())) == 1


def test_l0_norm_counts_across_blocks():
    # 500 nonzeros in y_f plus five blocks of 100 each: 1000 by enumeration
    rng = np.random.default_rng(0)
    y_f = np.zeros(4096)
    y_f[rng.choice(4096, size=500, replace=False)] = rng.standard_normal(500) + 3.0
    blocks = []
    for _ in range(5):
        y = np.zeros(961)
        y[rng.choice(961, size=100, replace=False)] = 1.0
        blocks.append(y)
    b = CoeffBlock(y_f, tuple(blocks))
    expected = sum(int(np.sum(v != 0)) for v in (y_f, *blocks))
    assert expected == 1000
    assert l0_norm(b) == 1000


def test_l0_norm_invariant_under_block_permutation():
    rng = np.random.default_rng(1)
    blocks = tuple(np.where(rng.random(20) < 0.3, rng.standard_normal(20), 0.0) for _ in range(4))
    b1 = CoeffBlock(np.zeros(3), blocks)
    b2 = CoeffBlock(np.zeros(3), blocks[::-1])
    assert l0_norm(b1) == l0_norm(b2)


def test_supports_match_nonzeros():
    y_f = np.array([0.0, 2.0, 0.0, -1e-12])
    b = CoeffBlock(y_f, (np.array([0.0, 0.5]),))
    sf, sg = b.supports
    assert list(sf) == [1]          # the 1e-12 entry is below the zero threshold
    assert list(sg[0]) == [1]


def test_relative_log_error_trivial_cases():
    g = Grid2(np.full((8, 8), 2.7))
    assert relative_log_error(g, g) == 0.0
    e = np.e
    assert relative_log_error(Grid2(np.full((8, 8), e * e)), Grid2(np.full((8, 8), e))) == pytest.approx(1.0)


def test_relative_log_error_rejects_nonpositive():
    g = Grid2(np.ones((4, 4)))
    bad = Grid2(np.concatenate([[-1.0], np.ones(15)]).reshape(4, 4))
    with pytest.raises(DomainError):
        relative_log_error(bad, g)


def test_log_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = Grid2(np.exp(rng.standard_normal((8, 8))))
        back = from_log(to_log(g))
        assert np.allclose(back.values, g.values, rtol=1e-12, atol=0)
        fwd = to_log(from_log(Grid2(rng.standard_normal((8, 8)))))
        # exp then log is also the identity for arbitrary real grids


def test_to_log_names_offending_pixel():
    v = np.ones((4, 4))
    v[2, 3] = 0.0
    with pytest.raises(DomainError, match=r"row=2, col=3"):
        to_log(Grid2(v))


def test_measurement_set_same_side():
    with pytest.raises(ValidationError):
        MeasurementSet((Grid2(np.ones((4, 4))), Grid2(np.ones((8, 8)))))

import numpy as np
import pytest

from sparsesep.errors import ValidationError
from sparsesep.grid import Grid2
from sparsesep.tv import TvConfig, total_variation, tv_denoise


def test_config_validation():
    with pytest.raises(ValidationError):
        TvConfig(weight=-1.0)
    with pytest.raises(ValidationError):
        TvConfig(weight=float("nan"))
    with pytest.raises(ValidationError):
        TvConfig(weight=float("inf"))
    with pytest.raises(ValidationError):
        TvConfig(weight=1.0, iterations=0)


def test_constant_input_unchanged():
    g = Grid2(np.full((16, 16), 4.2))
    out = tv_denoise(g, TvConfig(weight=0.5))
    assert np.abs(out.values - 4.2).max() < 1e-14


def test_tiny_weight_returns_input():
    rng = np.random.default_rng(0)
    g = Grid2(rng.standard_normal((16, 16)))
    out = tv_denoise(g, TvConfig(weight=1e-8))
    assert np.linalg.norm(out.values - g.values) <= 1e-6


def test_step_image_staircase():
    # noisy two-level image: TV drops and the plateau variance collapses
    rng = np.random.default_rng(1)
    d = 32
    clean = np.ones((d, d))
    clean[:, d // 2:] = 2.0
    noisy = clean + 0.15 * rng.standard_normal((d, d))
    g = Grid2(noisy)
    out = tv_denoise(g, TvConfig(weight=0.3))
    assert total_variation(out) < total_variation(g)
    for sl in (np.s_[4:-4, 4:d // 2 - 4], np.s_[4:-4, d // 2 + 4:-4]):
        assert np.var(noisy[sl]) / np.var(out.values[sl]) >= 10.0


def test_tv_never_increases():
    rng = np.random.default_rng(2)
    for _ in range(25):
        g = Grid2(rng.standard_normal((12, 12)))
        out = tv_denoise(g, TvConfig(weight=float(rng.uniform(0.01, 2.0))))
        assert total_variation(out) <= total_variation(g) + 1e-10


def test_mean_preserved():
    rng = np.random.default_rng(3)
    for _ in range(25):
        g = Grid2(rng.standard_normal((12, 12)))
        out = tv_denoise(g, TvConfig(weight=0.7))
        assert out.values.mean() == pytest.approx(g.values.mean(), abs=1e-10)


def test_smoothing_monotone_in_weight():
    rng = np.random.default_rng(4)
    g = Grid2(rng.standard_normal((16, 16)))
    tvs = [total_variation(tv_denoise(g, TvConfig(weight=w))) for w in (0.05, 0.2, 0.8, 2.0)]
    assert all(a >= b - 1e-9 for a, b in zip(tvs, tvs[1:]))

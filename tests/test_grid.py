import numpy as np
import pytest

from sparsesep.errors import DomainError, ValidationError
from sparsesep.grid import (
    Grid2,
    MeasurementSet,
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


def test_to_log_names_offending_pixel():
    v = np.ones((4, 4))
    v[2, 3] = 0.0
    with pytest.raises(DomainError, match=r"row=2, col=3"):
        to_log(Grid2(v))


def test_measurement_set_same_side():
    with pytest.raises(ValidationError):
        MeasurementSet((Grid2(np.ones((4, 4))), Grid2(np.ones((8, 8)))))

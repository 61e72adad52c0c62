"""Multi-measurement sparse signal separation and quantitative photoacoustic
tomography reconstruction.

The package separates signals h_i = f + g_i into a shared component sparse in
one dictionary and per-measurement components sparse in another, via a
block-structured orthogonal matching pursuit.  On top of that it provides the
incoherence/completeness diagnostics justifying the separation, a
finite-difference diffusion solver, and the end-to-end absorption
reconstruction pipelines for internal data H = Gamma * mu * u.
"""

from .errors import ConditioningError, DomainError, SolverError, ValidationError
from .grid import (
    CoeffBlock,
    Grid2,
    MeasurementSet,
    ZERO_TOL,
    from_log,
    grid_from_signal,
    l0_norm,
    relative_log_error,
    to_log,
)
from .dictionaries import (
    Dictionary,
    analyze_complement_norm,
    concatenate,
    explicit,
    fourier1d,
    haar2d,
    identity,
    mutual_coherence,
    sinusoid2d,
)
from .omp import OmpConfig, OmpReport, StackedSystem, l0_oracle, omp_block, omp_single
from .tv import TvConfig, total_variation, tv_denoise

__all__ = [name for name in dir() if not name.startswith("_")]

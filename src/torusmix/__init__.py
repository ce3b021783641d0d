"""torusmix: invariant measures of forced passive scalars on the 2-torus.

A desk-scale spectral laboratory.  Scalar fields live on the truncated real
Fourier basis of T^2 (see :mod:`torusmix.fields`); divergence-free flows
(:mod:`torusmix.flows`) induce exact Galerkin advection/dissipation matrices
(:mod:`torusmix.operators`); stationary covariances of the balanced
noise-plus-diffusion dynamics come from Lyapunov solves with a quadrature
oracle (:mod:`torusmix.covariance`); Monte Carlo validation and mixing
diagnostics round it out (:mod:`torusmix.simulate`,
:mod:`torusmix.spectral`).  The ``torusmix`` command line runs reproducible
experiments from config files (:mod:`torusmix.cli`).
"""

from .covariance import (
    CovarianceOperator,
    LyapunovError,
    NoiseSpec,
    block_operator_norm,
    covariance_by_quadrature,
    covariance_distance,
    eigenvalue_summary,
    h1_trace,
    lyapunov_covariance,
    read_covariance,
    shear_limit_covariance,
    write_covariance,
)
from .fields import (
    FourierField,
    Mode,
    field_from_grid,
    make_field,
    mode_table,
    project_low,
    project_low_eigencount,
    read_field,
    sample_grid,
    sobolev_norm,
    write_field,
)
from .flows import (
    Flow,
    ShearProfile,
    cellular_streamfunction,
    default_cellular_flow,
    make_cellular,
    make_shear,
    sin_shear,
    velocity_coefficients,
)
from .operators import (
    DENSE_CAP,
    OperatorMatrix,
    advection_matrix,
    dissipation_matrix,
    generator,
    invariant_blocks,
    semigroup_apply,
    semigroup_norm,
    write_operator_triplets,
)
from .simulate import (
    SimConfig,
    SimulationUnstable,
    TrajectoryStats,
    empirical_covariance,
    energy_balance_residual,
    simulate,
)
from .spectral import (
    GrowthCurve,
    SpectrumReport,
    h1_growth_average,
    low_mode_time_average,
    shear_E_projection,
    shear_exact_evolution,
    spectrum,
    streamline_projection,
)

__version__ = "0.1.0"

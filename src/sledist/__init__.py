"""Exact distribution of the scaled largest eigenvalue of complex Wishart matrices.

The statistic X = lambda_max(R) / (trace(R)/K) for R = Z Z^H with Z a K x N
standard complex Gaussian matrix.  Everything symbolic is exact rational
arithmetic; floats appear only at evaluation boundaries.
"""

from .backends import Backend, EigensolverError, get_backend
from .coefficients import (
    CoefficientTable,
    ConsistencyError,
    HankelSystem,
    ResourceLimitError,
    coefficient_table,
    d_constant,
    hankel_system,
    l_poly,
    table_from_json,
    table_to_json,
)
from .distributions import (
    PiecewisePolynomial,
    SleDistribution,
    build_sle_cdf,
    build_sle_pdf,
    default_grid,
    lambda1_moment,
    quantile,
    sle_distribution,
    sle_moment,
    threshold_for_false_alarm,
    trace_moment,
    write_distribution_csv,
)
from .exact import (
    ExpPolySum,
    Polynomial,
    Rational,
)
from .montecarlo import (
    GENERATOR_NAME,
    EmpiricalSample,
    SimulationConfig,
    ks_distance,
    sample_metadata,
    sample_sle,
    sle_statistic,
    write_sample_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Rational",
    "Polynomial",
    "ExpPolySum",
    "CoefficientTable",
    "HankelSystem",
    "ConsistencyError",
    "ResourceLimitError",
    "l_poly",
    "d_constant",
    "hankel_system",
    "coefficient_table",
    "table_to_json",
    "table_from_json",
    "PiecewisePolynomial",
    "SleDistribution",
    "build_sle_pdf",
    "build_sle_cdf",
    "sle_distribution",
    "quantile",
    "threshold_for_false_alarm",
    "sle_moment",
    "lambda1_moment",
    "trace_moment",
    "default_grid",
    "write_distribution_csv",
    "SimulationConfig",
    "EmpiricalSample",
    "GENERATOR_NAME",
    "sample_sle",
    "sle_statistic",
    "ks_distance",
    "write_sample_csv",
    "sample_metadata",
    "Backend",
    "EigensolverError",
    "get_backend",
]

"""Exact distribution of the scaled largest eigenvalue of complex Wishart matrices.

The statistic X = lambda_max(R) / (trace(R)/K) for R = Z Z^H with Z a K x N
standard complex Gaussian matrix.  Everything symbolic is exact rational
arithmetic; floats appear only at evaluation boundaries.

``import sledist`` loads neither numpy nor the sampler.  The exact names
(tables, assembly, moments) are imported here; numpy loads on the first float
operation that needs an array (see ``sledist.distributions``).  The sampler
names, whose module imports numpy, are served on first access by the module
``__getattr__`` (PEP 562).
"""

import importlib

from .coefficients import (
    CoefficientTable,
    ConsistencyError,
    EigensolverError,
    ResourceLimitError,
    coefficient_table,
    d_constant,
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
from .exact import Polynomial, Rational

# the sampler's names, served by __getattr__ from the module that imports numpy
_LAZY = (
    "SimulationConfig",
    "EmpiricalSample",
    "GENERATOR_NAME",
    "sample_sle",
    "sle_statistic",
    "ks_distance",
    "write_sample_csv",
    "sample_metadata",
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Rational",
    "Polynomial",
    "CoefficientTable",
    "ConsistencyError",
    "ResourceLimitError",
    "d_constant",
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
    "EigensolverError",
    *_LAZY,
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".montecarlo", __name__), name)

"""Monte Carlo validation: sample the SLE statistic and compare with the exact law.

Each draw fills a K x N matrix with independent standard complex Gaussians
(real and imaginary parts zero mean, variance 1/2), forms the Hermitian
product R = Z Z^H, and emits x = K * lambda_max(R) / trace(R).  The statistic
is scale invariant, so the variance convention of the entries cannot affect
it; that property is part of the test suite.

Randomness comes from numpy's Philox counter-based generator.  The sample
index space is split into `partitions` independent substreams derived from
the seed, so results are reproducible for a fixed partition count and the
generator name and partition count travel with the exported metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .backends import get_backend
from .coefficients import ConsistencyError
from .distributions import SleDistribution

__all__ = [
    "GENERATOR_NAME",
    "SimulationConfig",
    "EmpiricalSample",
    "sample_sle",
    "sle_statistic",
    "ks_distance",
    "write_sample_csv",
    "sample_metadata",
]

GENERATOR_NAME = "Philox"

_CHUNK = 4096
# eigensolver contract is relative 1e-10; allow that much slack on the support bounds
_SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class SimulationConfig:
    K: int
    N: int
    samples: int
    seed: int
    partitions: int = 1

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"K must be at least 2, got {self.K}")
        if self.N < self.K:
            raise ValueError(f"N must be at least K, got K={self.K}, N={self.N}")
        if self.samples < 1:
            raise ValueError(f"need at least one sample, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 1 <= self.partitions <= self.samples:
            raise ValueError(
                f"partitions must lie in [1, samples], got {self.partitions} "
                f"for {self.samples} samples"
            )


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """Sorted statistic values plus the configuration that produced them."""

    values: np.ndarray
    config: SimulationConfig

    def __post_init__(self):
        v = self.values
        if v.ndim != 1 or v.size != self.config.samples:
            raise ConsistencyError(
                f"expected {self.config.samples} values, got shape {v.shape}"
            )
        if np.any(np.diff(v) < 0):
            raise ConsistencyError("sample values are not sorted ascending")
        K = self.config.K
        tol = _SUPPORT_TOL * K
        if v[0] < 1 - tol or v[-1] > K + tol:
            raise ConsistencyError(
                f"sample range [{v[0]}, {v[-1]}] leaves the support [1, {K}]"
            )

    def __len__(self) -> int:
        return int(self.values.size)


def sle_statistic(Z: np.ndarray) -> np.ndarray:
    """SLE statistic K * lambda_max / trace for one or a batch of data matrices."""
    Z = np.asarray(Z, dtype=np.complex128)
    single = Z.ndim == 2
    if single:
        Z = Z[None]
    K = Z.shape[1]
    R = Z @ Z.conj().swapaxes(-1, -2)
    trace = np.einsum("sii->s", R).real
    evals = get_backend().eigvalsh_batch(R)
    stats = K * evals[:, -1] / trace
    return stats[0] if single else stats


def _draw(rng: np.random.Generator, K: int, N: int, count: int) -> np.ndarray:
    out = np.empty(count)
    done = 0
    while done < count:
        m = min(_CHUNK, count - done)
        Z = (rng.standard_normal((m, K, N)) + 1j * rng.standard_normal((m, K, N))) * math.sqrt(0.5)
        out[done : done + m] = sle_statistic(Z)
        done += m
    return out


def sample_sle(config: SimulationConfig) -> EmpiricalSample:
    """Draw config.samples statistics, deterministically for a given seed.

    Partition p consumes the p-th child of SeedSequence(seed), so the result
    depends on (seed, partitions) and on nothing else.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.partitions)
    base, extra = divmod(config.samples, config.partitions)
    parts = []
    for p, child in enumerate(children):
        count = base + (1 if p < extra else 0)
        if count == 0:
            continue
        rng = np.random.Generator(np.random.Philox(child))
        parts.append(_draw(rng, config.K, config.N, count))
    values = np.sort(np.concatenate(parts))
    return EmpiricalSample(values=values, config=config)


def ks_distance(sample: EmpiricalSample, d: SleDistribution) -> float:
    """Kolmogorov-Smirnov distance sup |F_empirical - F_exact| over the sample points.

    Both one-sided gaps are taken at every order statistic, which realizes the
    supremum for a step function against a continuous CDF.
    """
    v = sample.values
    n = v.size
    if n == 0:
        raise ValueError("empty sample")
    F = d.cdf.eval_many(v)
    i = np.arange(n)
    lower = np.max(F - i / n)
    upper = np.max((i + 1) / n - F)
    return float(max(lower, upper))


def write_sample_csv(sample: EmpiricalSample, stream: IO[str]) -> None:
    stream.write("x\n")
    for v in sample.values:
        stream.write(f"{float(v)!r}\n")


def sample_metadata(sample: EmpiricalSample) -> dict:
    """Sidecar content: enough to regenerate the sample bit for bit."""
    c = sample.config
    return {
        "K": c.K,
        "N": c.N,
        "samples": c.samples,
        "seed": c.seed,
        "generator": GENERATOR_NAME,
        "partitions": c.partitions,
    }

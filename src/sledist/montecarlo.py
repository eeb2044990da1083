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

Sampling is pipelined in blocks bounded in bytes: a block holds at most
1024 matrices and at most 640 KiB of complex entries, so 1024 matrices while
K * N <= 40, 341 at (3, 40) and 102 at (4, 100).  The calling thread draws a
4096-matrix chunk's real parts into one reused buffer, then forms the chunk's
complex matrices one block at a time: it copies a block's real parts into a
free block buffer, draws the block's imaginary parts into the chunk buffer
over the real parts just copied, and scales by sqrt(0.5).  Each block goes to
one worker thread as soon as it is formed, and the worker computes its
statistics (Gram product and LAPACK eigensolve, which release the interpreter
lock) while the next block is drawn.  The imaginary parts of a chunk follow
its real parts in the stream whatever block they are drawn in, every matrix
meets the same arithmetic, and every block's statistics land at the same
offsets, so the sample is bit for bit the serial one for every
(seed, partitions).  The working set is one chunk's real parts plus about
three 640 KiB blocks: two complex block buffers and the statistic's conjugate
copy of one, whose Gram products are smaller by a factor N / K.  One double
per sample holds the values.

The statistic stays on one worker thread.  A second one gains nothing,
because numpy's OpenBLAS serialises concurrent eigensolves: on a 2-core host,
32,768 (6,6) Gram matrices took 0.19-0.27 s as two halves on two threads
against 0.14-0.23 s on one.  Two forked processes took 0.12-0.13 s, but a
process pool would have to ship every block to its worker and back.
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

# Matrices drawn per chunk.  This defines the stream: all real parts of a chunk
# are drawn before all its imaginary parts, so changing it changes every sample.
_CHUNK = 4096
# At most this many matrices per Gram product and eigensolve inside
# sle_statistic, and per block that sample_sle hands its worker.
_STATISTIC_BLOCK = 1024
# At most this many bytes of complex128 entries per block: a 1024-matrix block
# at K*N = 40.  Bounds the complex buffers and the statistic's temporaries at
# large K*N; the block size does not affect the values.
_BLOCK_BYTES = 640 * 1024
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


def _block_size(K: int, N: int) -> int:
    """Matrices per block for K x N complex matrices."""
    return max(1, min(_STATISTIC_BLOCK, _BLOCK_BYTES // (16 * K * N)))


def sle_statistic(Z: np.ndarray) -> np.ndarray:
    """SLE statistic K * lambda_max / trace for one or a batch of data matrices.

    A batch is worked through in blocks of ``_block_size(K, N)`` matrices;
    each matrix's value is the same whatever block it falls in.
    """
    Z = np.asarray(Z, dtype=np.complex128)
    single = Z.ndim == 2
    if single:
        Z = Z[None]
    _, K, N = Z.shape
    size = _block_size(K, N)
    eigvalsh_batch = get_backend().eigvalsh_batch
    stats = np.empty(Z.shape[0])
    for start in range(0, Z.shape[0], size):
        block = Z[start : start + size]
        R = block @ block.conj().swapaxes(-1, -2)
        trace = np.einsum("sii->s", R).real
        stats[start : start + size] = K * eigvalsh_batch(R)[:, -1] / trace
    return stats[0] if single else stats


def _statistic_into(out: np.ndarray, Z: np.ndarray) -> None:
    out[:] = sle_statistic(Z)


def sample_sle(config: SimulationConfig) -> EmpiricalSample:
    """Draw config.samples statistics, deterministically for a given seed.

    Partition p consumes the p-th child of SeedSequence(seed), so the result
    depends on (seed, partitions) and on nothing else.  The calling thread
    draws in stream order and forms the matrices one block at a time; one
    worker thread computes each block's statistics while the next block is
    formed.  A block holds ``_block_size(K, N)`` matrices, at most 640 KiB, so
    one chunk of real parts and two such blocks of matrices are alive.
    """
    from concurrent.futures import ThreadPoolExecutor

    K, N = config.K, config.N
    size = _block_size(K, N)
    children = np.random.SeedSequence(config.seed).spawn(config.partitions)
    base, extra = divmod(config.samples, config.partitions)
    values = np.empty(config.samples)
    # a chunk's real parts; each block's imaginary parts are then drawn over
    # the block's real parts once they are copied out, so this is the only
    # float buffer, and no draw allocates and frees a temporary whose place
    # the allocator might leave resident
    draw = np.empty(min(_CHUNK, config.samples) * K * N)
    # two block buffers of at most _BLOCK_BYTES each: the worker solves one
    # while the next is formed
    ring = np.empty((2, min(size, config.samples), K, N), dtype=np.complex128)
    pending = [None, None]
    slot = 0
    with ThreadPoolExecutor(max_workers=1) as worker:
        offset = 0
        for p, child in enumerate(children):
            rng = np.random.Generator(np.random.Philox(child))
            end = offset + base + (1 if p < extra else 0)
            for start in range(offset, end, _CHUNK):
                m = min(_CHUNK, end - start)
                reals = rng.standard_normal(out=draw[: m * K * N].reshape(m, K, N))
                for first in range(0, m, size):
                    part = reals[first : first + size]
                    if pending[slot] is not None:
                        pending[slot].result()
                    # the bits of (a + 1j*b) * sqrt(0.5)
                    Z = ring[slot, : len(part)]
                    Z.real = part
                    Z.imag = rng.standard_normal(out=part)
                    Z *= math.sqrt(0.5)
                    at = start + first
                    pending[slot] = worker.submit(_statistic_into, values[at : at + len(part)], Z)
                    slot ^= 1
            offset = end
        for future in pending:
            if future is not None:
                future.result()
    values.sort()
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

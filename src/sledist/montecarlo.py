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

Sampling is pipelined in blocks bounded in bytes: a block holds the largest
power of two of matrices, at most a chunk's 4096, whose complex entries fit in
640 KiB, so 4096 matrices while K * N <= 10, 2048 at (2, 10), 1024 at (4, 10)
and (6, 6), 256 at (3, 40) and 64 at (4, 100), and blocks tile every full
chunk.  The calling process draws a 4096-matrix chunk's real parts into one
reused buffer, then forms the chunk's complex matrices one block at a time:
it copies a block's real parts into a free buffer of a ring of three, draws
the block's imaginary parts into the chunk buffer over the real parts just
copied, and scales by sqrt(0.5).  The imaginary parts of a chunk follow its
real parts in the stream whatever block they are drawn in, and every block's
statistics land at the same offsets, so the sample is bit for bit the serial
one for every (seed, partitions).

The statistic (Gram product and LAPACK eigensolve) is shared with one forked
helper process; the ring and the values array live in anonymous shared
memory mapped before the fork.  After forming a block the caller reads the
helper's waiting acknowledgements; while the helper holds fewer than two
blocks it sends it the block's (slot, offset, count) through a pipe, and
otherwise it solves the block itself, in place, as it does the sample's last
block.  Both cores stay busy: per 1e5 samples the helper solved 56-65 of 98
blocks at (6, 6), where the eigensolves are the bound, and 318-353 of 391 at
(3, 40), where the draws are.  Both processes run one ``solve`` closure on the
same matrix, so no value depends on which one solved it.  The helper only
speeds the sample up: if it fails or dies, it exits, and the caller solves
the blocks it still held, so an error is raised only by the caller's own
call, with the type and message of the serial path.  It is a process and not
a thread because numpy's OpenBLAS serialises concurrent eigensolves within a
process: on a 2-core host, 48 (6,6) blocks of 1024 Gram matrices took
0.20-0.32 s on one thread and the same split over two, while 98 (4,10) blocks
took 0.30-0.35 s in one process and 0.16-0.18 s split over two forked ones.
Off Linux, without ``os.fork``, beside another Python thread, whose locks a
fork could copy held, or when the sample fits in one block, the caller
solves every block.  The working set is one chunk's real parts, the three
640 KiB ring buffers and the statistic's temporaries; one double per sample
holds the values.
"""

from __future__ import annotations

import math
import mmap
import os
import select
import struct
import sys
import threading
from collections import deque
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .backends import get_backend
from .coefficients import ConsistencyError, _check_shape
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
# At most this many bytes of complex128 entries per block, in sample_sle and
# per Gram product and eigensolve: a 1024-matrix block at K*N = 40.  Bounds the
# buffers and the statistic's temporaries; the block size affects no value.
_BLOCK_BYTES = 640 * 1024
# Blocks the helper process may hold at once, the one it is solving included.
# At 1 the caller solves whenever the helper is busy: 1e5 samples at (3,40),
# where the draws are the bound, took 0.71 s against 0.61 s at 2.  3 was
# within the noise of 2 and needs a fourth block buffer.
_HELPER_DEPTH = 2
_REQUEST = struct.Struct("3q")  # ring slot, offset into the values, matrices
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
        _check_shape(self.K, self.N)
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
    """Matrices per block for K x N complex matrices: the largest power of two
    that fits in ``_BLOCK_BYTES``, at most ``_CHUNK``, so blocks tile every full chunk."""
    fits = max(1, _BLOCK_BYTES // (16 * K * N))
    return min(_CHUNK, 1 << (fits.bit_length() - 1))


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


class _Helper:
    """A forked process that runs the caller's ``solve(slot, offset, count)``.

    The caller writes one request per block to a pipe; the helper runs
    ``solve`` on it and answers with a zero byte on a second pipe, in order.
    It exits at the end of the requests, and on any failure.  When the caller
    reads the end of the answers it solves the requests still queued with the
    same ``solve`` and offers nothing more, so a helper that fails or dies
    leaves every value as the caller alone would compute it, and a failure
    that is not the helper's own is raised by the caller's call.  The caller
    holds the request pipe's read end until :meth:`close`, so a request
    written after the helper died waits in the pipe instead of raising.
    """

    def __init__(self, solve: Callable[[int, int, int], None]):
        self._solve = solve
        self._pending, self._requests = os.pipe()
        self._acks, acks = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            # no stdio flush, atexit hook or file object close of the caller's
            try:
                os.close(self._requests)
                os.close(self._acks)
                # requests are written whole and are shorter than PIPE_BUF, so a
                # read returns one whole request or, at the end, nothing
                while request := os.read(self._pending, _REQUEST.size):
                    solve(*_REQUEST.unpack(request))
                    os.write(acks, b"\0")
            finally:
                os._exit(0)
        os.close(acks)
        self._alive = True
        self.queued: deque[tuple[int, int, int]] = deque()  # submitted, not acknowledged

    def offer(self, slot: int, offset: int, count: int) -> bool:
        """Submit the block in ``slot`` unless the helper is gone or holds a full queue."""
        self._retire(wait=False)
        if not self._alive or len(self.queued) >= _HELPER_DEPTH:
            return False
        os.write(self._requests, _REQUEST.pack(slot, offset, count))
        self.queued.append((slot, offset, count))
        return True

    def drain(self) -> None:
        while self.queued:
            self._retire(wait=True)

    def close(self) -> None:
        # the helper sees the end of its requests, or a broken ack pipe, and exits
        os.close(self._requests)
        os.close(self._pending)
        os.close(self._acks)
        os.waitpid(self.pid, 0)

    def _retire(self, wait: bool) -> None:
        # with nothing queued there is nothing to retire; a death shows after the next request
        if not self.queued or not wait and not select.select([self._acks], [], [], 0)[0]:
            return
        done = len(os.read(self._acks, 4096))
        if not done:
            # the helper is gone: its blocks come back to the caller
            self._alive = False
            while self.queued:
                self._solve(*self.queued.popleft())
        for _ in range(done):
            self.queued.popleft()


def _shared(dtype, shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, written through by a forked helper."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, dtype.itemsize * math.prod(shape)), dtype).reshape(shape)


def _can_fork() -> bool:
    # a fork beside another thread could copy a lock that thread holds
    return sys.platform.startswith("linux") and hasattr(os, "fork") and threading.active_count() == 1


def sample_sle(config: SimulationConfig) -> EmpiricalSample:
    """Draw config.samples statistics, deterministically for a given seed.

    Partition p consumes the p-th child of SeedSequence(seed), so the result
    depends on (seed, partitions) and on nothing else.  The calling process
    draws in stream order and forms the matrices one block of
    ``_block_size(K, N)`` matrices, a power of two within 640 KiB, at a time.
    It hands a formed block to a forked helper process while the helper holds
    fewer than two, and otherwise solves the block itself; it always solves
    the last one.  The blocks and the values live in shared memory.  A helper
    that fails or dies hands its blocks back to the caller, so the sample is
    complete and the same bits, and only the caller's own solve raises.  Off
    Linux, without ``os.fork``, beside another Python thread, or when the
    sample fits in one block, the caller solves every block, with the same bits.
    """
    K, N = config.K, config.N
    size = _block_size(K, N)
    children = np.random.SeedSequence(config.seed).spawn(config.partitions)
    base, extra = divmod(config.samples, config.partitions)
    values = _shared(np.float64, (config.samples,))
    # one block buffer per block the helper may hold, and one being formed
    ring = _shared(np.complex128, (_HELPER_DEPTH + 1, min(size, config.samples), K, N))

    def solve(slot: int, offset: int, count: int) -> None:
        values[offset : offset + count] = sle_statistic(ring[slot, :count])

    helper = _Helper(solve) if config.samples > size and _can_fork() else None
    queued = () if helper is None else helper.queued
    try:
        # a chunk's real parts; each block's imaginary parts are then drawn
        # over the block's real parts once they are copied out, so this is the
        # only private float buffer, and no draw allocates and frees a
        # temporary whose place the allocator might leave resident
        draw = np.empty(min(_CHUNK, config.samples) * K * N)
        offset = 0
        for p, child in enumerate(children):
            rng = np.random.Generator(np.random.Philox(child))
            end = offset + base + (1 if p < extra else 0)
            for start in range(offset, end, _CHUNK):
                m = min(_CHUNK, end - start)
                reals = rng.standard_normal(out=draw[: m * K * N].reshape(m, K, N))
                for first in range(0, m, size):
                    part = reals[first : first + size]
                    n = len(part)
                    busy = [request[0] for request in queued]
                    slot = next(s for s in range(len(ring)) if s not in busy)
                    # the bits of (a + 1j*b) * sqrt(0.5)
                    Z = ring[slot, :n]
                    Z.real = part
                    Z.imag = rng.standard_normal(out=part)
                    Z *= math.sqrt(0.5)
                    at = start + first
                    # the caller would only wait after the last block, so it solves that one
                    if at + n == config.samples or helper is None or not helper.offer(slot, at, n):
                        solve(slot, at, n)
            offset = end
        if helper is not None:
            helper.drain()
    finally:
        if helper is not None:
            helper.close()
    values.sort()
    return EmpiricalSample(values=values, config=config)


def ks_distance(sample: EmpiricalSample, d: SleDistribution) -> float:
    """Kolmogorov-Smirnov distance sup |F_empirical - F_exact| over the sample points.

    Both one-sided gaps are taken at every order statistic, which realizes the
    supremum for a step function against a continuous CDF.
    """
    v = sample.values
    n = v.size
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

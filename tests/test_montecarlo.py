"""Sampling determinism, scale invariance, and goodness-of-fit plumbing."""

import io
import json
import mmap
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sledist import (
    GENERATOR_NAME,
    ConsistencyError,
    EigensolverError,
    EmpiricalSample,
    SimulationConfig,
    ks_distance,
    sample_metadata,
    sample_sle,
    sle_statistic,
    write_sample_csv,
)

from sledist import montecarlo
from sledist.cli import main

from conftest import cached_dist
from oracles import _sle_statistic_reference, sample_sle_reference


def _sample(K=2, N=10, samples=400, seed=7, partitions=1):
    return sample_sle(SimulationConfig(K=K, N=N, samples=samples, seed=seed, partitions=partitions))


# --- config validation ------------------------------------------------------


def test_config_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SimulationConfig(K=1, N=5, samples=10, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(K=3, N=2, samples=10, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(K=2, N=5, samples=0, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(K=2, N=5, samples=10, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(K=2, N=5, samples=10, seed=2**64)
    with pytest.raises(ValueError):
        SimulationConfig(K=2, N=5, samples=10, seed=0, partitions=11)
    with pytest.raises(ValueError):
        SimulationConfig(K=2, N=5, samples=10, seed=0, partitions=0)


def test_sample_shape_validation():
    cfg = SimulationConfig(K=2, N=5, samples=3, seed=0)
    with pytest.raises(ConsistencyError):
        EmpiricalSample(values=np.array([1.0, 1.2]), config=cfg)
    with pytest.raises(ConsistencyError):
        EmpiricalSample(values=np.array([1.5, 1.2, 1.8]), config=cfg)
    with pytest.raises(ConsistencyError):
        EmpiricalSample(values=np.array([1.0, 1.2, 2.5]), config=cfg)


# --- determinism ---------------------------------------------------------------


def test_same_config_is_bitwise_reproducible():
    a = _sample(seed=123)
    b = _sample(seed=123)
    assert np.array_equal(a.values, b.values)


def test_seed_changes_sample():
    a = _sample(seed=123)
    b = _sample(seed=124)
    assert not np.array_equal(a.values, b.values)


def test_partition_count_changes_stream():
    a = _sample(seed=123, partitions=1)
    b = _sample(seed=123, partitions=4)
    assert not np.array_equal(a.values, b.values)
    # but each partitioned run is itself reproducible
    c = _sample(seed=123, partitions=4)
    assert np.array_equal(b.values, c.values)


def test_partitions_cover_all_samples():
    s = _sample(samples=401, partitions=7)
    assert len(s) == 401
    assert np.all(np.diff(s.values) >= 0)


@pytest.mark.parametrize(
    "K,N,samples,partitions",
    [
        (2, 10, 9000, 1),  # three chunks, the last one partial
        (3, 40, 4096, 1),  # exactly one chunk
        (3, 40, 6144, 1),  # a chunk and a half: eight blocks in the last chunk
        (3, 40, 500, 1),  # shorter than one chunk: two blocks, the last one partial
        (3, 40, 4444, 1),  # 256-matrix blocks, the last one partial
        (4, 100, 5000, 2),  # 64-matrix blocks, two partitions
        (4, 10, 10001, 3),
        (6, 6, 1, 1),
        (2, 10, 401, 7),
    ],
)
def test_stream_matches_serial_reference(K, N, samples, partitions):
    config = SimulationConfig(K=K, N=N, samples=samples, seed=2024, partitions=partitions)
    got = sample_sle(config).values
    assert np.array_equal(got.view(np.uint64), sample_sle_reference(config).view(np.uint64))


def test_sampler_working_set_is_a_few_chunk_draws():
    # a chunk's real parts, two complex block buffers and the statistic's
    # temporaries; holding whole chunks as complex matrices took 5.8 draws
    K, N = 3, 40
    config = SimulationConfig(K=K, N=N, samples=3 * 4096, seed=5)
    tracemalloc.start()
    try:
        sample_sle(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 4096 * K * N * 8


def test_sampler_blocks_are_bounded_in_bytes():
    # at (4,100) a 1024-matrix complex block is 6.25 MiB; blocks of at most
    # 640 KiB leave a chunk's real parts and a few MiB
    K, N = 4, 100
    config = SimulationConfig(K=K, N=N, samples=2 * 4096, seed=5)
    tracemalloc.start()
    try:
        sample_sle(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096 * K * N * 8 + 4 * 2**20


def test_block_size_is_a_power_of_two_that_tiles_a_chunk_within_the_byte_budget():
    for K in range(2, 45):
        for N in range(K, 2000 // K + 1):
            size = montecarlo._block_size(K, N)
            assert size & (size - 1) == 0 and montecarlo._CHUNK % size == 0, (K, N)
            assert size == 1 or 16 * K * N * size <= montecarlo._BLOCK_BYTES, (K, N)


def test_stream_unchanged_under_frequent_thread_switches():
    # one more bit-for-bit run against the serial reference, at (3,5) with two
    # partitions; the helper is a process forked while the caller is the only
    # live thread, so the switch interval does not reach the sampler, and this
    # test does not catch a value read before the helper acknowledged its block
    config = SimulationConfig(K=3, N=5, samples=20000, seed=99, partitions=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_sle(config).values
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.view(np.uint64), sample_sle_reference(config).view(np.uint64))


def test_eigensolver_failure_in_worker_propagates(monkeypatch, capsys):
    def boom(mats):
        raise np.linalg.LinAlgError("did not converge")

    threads = threading.active_count()
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    # several chunks, so the helper process fails while the caller draws the
    # next chunk, and the caller's own solve of a block raises
    with pytest.raises(EigensolverError, match="LAPACK"):
        _sample(samples=9000)
    assert threading.active_count() == threads
    code = main(["validate", "--K", "2", "--N", "6", "--samples", "500", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "LAPACK" in err
    assert threading.active_count() == threads


# --- the helper process ----------------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Pids of the helper processes that sample_sle forks during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def test_helper_is_reaped_after_sampling(forks):
    config = SimulationConfig(K=4, N=10, samples=10001, seed=2024, partitions=3)
    got = sample_sle(config).values
    assert np.array_equal(got.view(np.uint64), sample_sle_reference(config).view(np.uint64))
    _assert_reaped(forks)


def test_failure_in_caller_between_blocks_reaps_helper(monkeypatch, forks):
    generator = np.random.Generator

    class FailsOnFourthDraw:
        # a chunk's real parts, then the imaginary parts of blocks 0, 1 and 2
        def __init__(self, bits):
            self._rng, self._draws = generator(bits), 0

        def standard_normal(self, **kwargs):
            self._draws += 1
            if self._draws == 4:
                raise RuntimeError("interrupted between blocks")
            return self._rng.standard_normal(**kwargs)

    monkeypatch.setattr(np.random, "Generator", FailsOnFourthDraw)
    with pytest.raises(RuntimeError, match="between blocks"):
        _sample(samples=9000)
    _assert_reaped(forks)


def _raises_in_helper(monkeypatch, caller):
    eigvalsh = np.linalg.eigvalsh

    def fails_in_helper(mats):
        if os.getpid() != caller:
            raise np.linalg.LinAlgError("did not converge")
        return eigvalsh(mats)

    monkeypatch.setattr(np.linalg, "eigvalsh", fails_in_helper)


def _exits_in_helper(monkeypatch, caller):
    statistic = montecarlo.sle_statistic

    def dies_in_helper(Z):
        if os.getpid() != caller:
            os._exit(3)
        return statistic(Z)

    monkeypatch.setattr(montecarlo, "sle_statistic", dies_in_helper)


def _killed_before_first_request(monkeypatch, caller):
    # the first request is then written to a dead helper, and must wait in the
    # pipe rather than raise BrokenPipeError
    fork = os.fork

    def killing_fork():
        pid = fork()
        if pid:
            os.kill(pid, signal.SIGKILL)
            # dead but not reaped, so sample_sle still has the child to wait for
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return pid

    monkeypatch.setattr(os, "fork", killing_fork)


@pytest.mark.parametrize(
    "fault",
    [_raises_in_helper, _exits_in_helper, _killed_before_first_request],
    ids=["raises", "exits", "killed"],
)
def test_helper_fault_leaves_the_sample_whole(monkeypatch, forks, fault):
    # the caller solves the blocks a failed or dead helper still held
    fault(monkeypatch, os.getpid())
    config = SimulationConfig(K=2, N=10, samples=9000, seed=7)
    began = time.monotonic()
    got = sample_sle(config).values
    assert time.monotonic() - began < 5
    assert np.array_equal(got.view(np.uint64), sample_sle_reference(config).view(np.uint64))
    _assert_reaped(forks)


_SERIAL_CONFIGS = [
    SimulationConfig(K=3, N=40, samples=4444, seed=2024),
    SimulationConfig(K=4, N=10, samples=10001, seed=2024, partitions=3),
]


@pytest.mark.parametrize("config", _SERIAL_CONFIGS, ids=["3-40", "4-10"])
def test_serial_stream_without_fork(monkeypatch, config):
    monkeypatch.delattr(os, "fork")
    got = sample_sle(config).values
    assert np.array_equal(got.view(np.uint64), sample_sle_reference(config).view(np.uint64))


@pytest.mark.parametrize("config", _SERIAL_CONFIGS, ids=["3-40", "4-10"])
def test_serial_stream_beside_another_thread(forks, config):
    # the sampling thread is the second one alive, so nothing may fork
    result = []
    thread = threading.Thread(target=lambda: result.append(sample_sle(config).values))
    thread.start()
    thread.join()
    assert forks == []
    assert np.array_equal(result[0].view(np.uint64), sample_sle_reference(config).view(np.uint64))


@pytest.mark.parametrize("K,N,samples", [(4, 100, 2 * 4096), (3, 40, 3 * 4096)])
def test_shared_regions_are_the_values_and_a_bounded_ring(monkeypatch, K, N, samples):
    # tracemalloc does not see mmap buffers, so their lengths are checked here
    lengths = []
    shared = mmap.mmap

    def recording_mmap(fileno, length, *args, **kwargs):
        lengths.append(length)
        return shared(fileno, length, *args, **kwargs)

    monkeypatch.setattr(montecarlo.mmap, "mmap", recording_mmap)
    sample_sle(SimulationConfig(K=K, N=N, samples=samples, seed=5))
    values, ring = lengths
    assert values == 8 * samples
    assert ring <= 3 * montecarlo._BLOCK_BYTES


# --- the statistic itself --------------------------------------------------------


def test_statistic_support_bounds():
    s = _sample(K=4, N=10, samples=2000, seed=42)
    assert s.values[0] >= 1.0 - 1e-9
    assert s.values[-1] <= 4.0 + 1e-9


def test_statistic_scale_invariance():
    rng = np.random.default_rng(314)
    Z = (rng.standard_normal((50, 3, 8)) + 1j * rng.standard_normal((50, 3, 8))) * np.sqrt(0.5)
    base = sle_statistic(Z)
    scaled = sle_statistic(3.7j * Z)
    np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=0)


def test_statistic_equals_eigensum_identity():
    # trace(Z Z^H) computed two ways: einsum of the product and |Z|^2 sum
    rng = np.random.default_rng(1000)
    Z = (rng.standard_normal((20, 3, 8)) + 1j * rng.standard_normal((20, 3, 8))) * np.sqrt(0.5)
    R = Z @ Z.conj().swapaxes(-1, -2)
    tr_prod = np.einsum("sii->s", R).real
    tr_abs = np.sum(np.abs(Z) ** 2, axis=(1, 2))
    np.testing.assert_allclose(tr_prod, tr_abs, rtol=1e-12)
    evals = np.linalg.eigvalsh(R)
    np.testing.assert_allclose(evals.sum(axis=1), tr_abs, rtol=1e-9)


@pytest.mark.parametrize("K,N", [(2, 10), (6, 6), (3, 40)])
def test_blocked_statistic_matches_single_matrix_calls(K, N):
    rng = np.random.default_rng(K * 100 + N)
    Z = (rng.standard_normal((4096, K, N)) + 1j * rng.standard_normal((4096, K, N))) * np.sqrt(0.5)
    batch = sle_statistic(Z).view(np.uint64)
    assert np.array_equal(batch, _sle_statistic_reference(Z).view(np.uint64))
    per_matrix = np.concatenate([sle_statistic(Z[i : i + 1]) for i in range(len(Z))])
    single = np.array([sle_statistic(z) for z in Z])
    assert np.array_equal(batch, per_matrix.view(np.uint64))
    assert np.array_equal(batch, single.view(np.uint64))


def test_single_matrix_statistic_in_support():
    rng = np.random.default_rng(8)
    Z = (rng.standard_normal((2, 7)) + 1j * rng.standard_normal((2, 7))) * np.sqrt(0.5)
    x = float(sle_statistic(Z))
    assert 1.0 <= x <= 2.0


# --- KS distance ------------------------------------------------------------------


def test_ks_distance_degenerate_sample_at_left_edge():
    d = cached_dist(2, 2)
    cfg = SimulationConfig(K=2, N=2, samples=5, seed=0)
    s = EmpiricalSample(values=np.full(5, 1.0), config=cfg)
    # all empirical mass sits where the exact CDF is 0
    assert ks_distance(s, d) == pytest.approx(1.0, abs=1e-12)


def test_ks_distance_single_point_at_median():
    d = cached_dist(2, 2)
    med = 1 + 2 ** (-1 / 3)
    cfg = SimulationConfig(K=2, N=2, samples=1, seed=0)
    s = EmpiricalSample(values=np.array([med]), config=cfg)
    assert ks_distance(s, d) == pytest.approx(0.5, abs=1e-9)


def test_ks_distance_shrinks_with_sample_size():
    d = cached_dist(2, 10)
    small = ks_distance(_sample(samples=200, seed=5), d)
    large = ks_distance(_sample(samples=20000, seed=5), d)
    assert large < small
    assert large < 0.02


# --- export -----------------------------------------------------------------------


def test_sample_csv_format():
    s = _sample(samples=10, seed=3)
    buf = io.StringIO()
    write_sample_csv(s, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x"
    parsed = np.array([float(t) for t in lines[1:]])
    assert np.array_equal(parsed, s.values)


def test_sample_metadata_contents():
    s = _sample(K=3, N=12, samples=17, seed=99, partitions=2)
    meta = sample_metadata(s)
    assert meta == {
        "K": 3,
        "N": 12,
        "samples": 17,
        "seed": 99,
        "generator": GENERATOR_NAME,
        "partitions": 2,
    }
    json.dumps(meta)  # must be serializable as-is

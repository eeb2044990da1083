"""Sampling determinism, scale invariance, and goodness-of-fit plumbing."""

import io
import json

import numpy as np
import pytest

from sledist import (
    GENERATOR_NAME,
    ConsistencyError,
    EmpiricalSample,
    SimulationConfig,
    ks_distance,
    sample_metadata,
    sample_sle,
    sle_statistic,
    write_sample_csv,
)

from conftest import cached_dist


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

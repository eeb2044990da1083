"""Acceptance gate: one test per top-level correctness claim.

Each test is a single pass/fail line under ``pytest -v``.  Everything exact is
checked with rational arithmetic; the Monte Carlo criterion is seeded and
deterministic.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from sledist import (
    coefficient_table,
    d_constant,
    lambda1_moment,
    ks_distance,
    quantile,
    sample_sle,
    SimulationConfig,
    sle_moment,
    table_from_json,
    table_to_json,
    trace_moment,
)
from sledist.coefficients import _det_bareiss, _l_moment
from sledist.exact import Polynomial

from conftest import EXACT_CONFIGS, MC_CONFIGS, MOMENT_CONFIGS, cached_dist, cached_table
from oracles import (
    as_exppoly,
    closed_form_k2,
    closed_form_k3,
    five_product_k4,
    fraction_det,
    khatri_density,
)

# shapes above K = 4, where no closed form holds the table; bench/khatri_tables.py takes larger ones
KHATRI_CONFIGS = [(5, N) for N in range(5, 10)] + [(6, 6), (6, 12), (5, 20), (7, 7)]


def test_acceptance_density_normalization_exact():
    # sum over the table of c * j! / i^(j+1) is exactly 1
    for K, N in EXACT_CONFIGS:
        assert cached_table(K, N).normalization() == 1, (K, N)


def test_acceptance_sle_normalization_and_boundaries_exact():
    for K, N in EXACT_CONFIGS:
        d = cached_dist(K, N)
        assert d.pdf.integral() == 1, (K, N)
        assert d.cdf.value_exact(F(1)) == 0, (K, N)
        assert d.cdf.value_exact(F(K)) == 1, (K, N)


def test_acceptance_engine_cross_validation():
    for N in range(2, 31):
        assert coefficient_table(2, N).entries == closed_form_k2(N).entries, N
    for N in range(3, 31):
        assert coefficient_table(3, N).entries == closed_form_k3(N).entries, N
    # K = 4: the engine's integer 3x3 determinant of the L_a equals five ring products
    for N in range(4, 16):
        rows = [[_l_moment(N - 4 + r + s) for s in range(3)] for r in range(3)]
        assert as_exppoly(_det_bareiss(rows)) == five_product_k4(N), N


def test_acceptance_moment_product_identity_exact():
    for K, N in EXACT_CONFIGS:
        t = cached_table(K, N)
        d = cached_dist(K, N)
        for z in range(1, 7):
            assert lambda1_moment(t, z) == sle_moment(d, z - 1) * trace_moment(K, N, z), (K, N, z)
    # worked anchor
    assert lambda1_moment(cached_table(2, 2), 2) == F(7, 2)
    assert sle_moment(cached_dist(2, 2), 1) == F(7, 4)
    assert trace_moment(2, 2, 2) == 2


def test_acceptance_cdf_pdf_calculus_consistency():
    for K, N in EXACT_CONFIGS:
        d = cached_dist(K, N)
        assert len(d.cdf.segments) == len(d.pdf.segments) == K - 1, (K, N)
        for cseg, pseg in zip(d.cdf.segments, d.pdf.segments):
            assert cseg.derivative() == pseg, (K, N)


def _root_order(coeffs: list[int], r: int) -> int:
    """Multiplicity of x = r as a root of sum_k coeffs[k] x^k, by exact synthetic division."""
    order = 0
    while True:
        acc, quotient = 0, []  # Horner from the top: the partial sums are the quotient's coefficients
        for c in reversed(coeffs):
            acc = acc * r + c
            quotient.append(acc)
        if acc:
            return order
        coeffs = quotient[-2::-1]
        order += 1


def test_acceptance_density_zero_orders_at_the_support_ends():
    # neither unit mass, continuity nor the moment identity pins how fast the density vanishes
    for K, N in MOMENT_CONFIGS:  # EXACT_CONFIGS and four more
        segments = cached_dist(K, N).pdf.segments
        first, _ = segments[0].integer_form()
        last, _ = segments[-1].integer_form()
        assert _root_order(list(first), 1) == K * K - 2, (K, N)
        assert _root_order(list(last), K) == (K - 1) * (N - 1) - 1, (K, N)


def test_acceptance_khatri_constant_term():
    # Khatri (1964): the CDF of lambda_max is det[gamma(N-K+i+j-1, x)] over prod (N-i)!(K-i)!,
    # so its constant term det[(N-K+i+j-2)!] meets the table's normalization by another route
    for K in range(2, 11):
        for N in range(K, K + 5):
            hankel = [[math.factorial(N - K + i + j - 2) for j in range(1, K + 1)] for i in range(1, K + 1)]
            assert fraction_det(hankel) == 1 / d_constant(K, N), (K, N)


def test_acceptance_khatri_density_equals_the_table():
    # the density G'(x) of Khatri's determinant, derived without the Hankel engine
    for K, N in KHATRI_CONFIGS:
        nonzero = {ij: c for ij, c in cached_table(K, N).entries.items() if c}
        assert nonzero == khatri_density(K, N).entries(), (K, N)


def test_acceptance_monte_carlo_goodness_of_fit():
    for K, N in MC_CONFIGS:
        d = cached_dist(K, N)
        sample = sample_sle(SimulationConfig(K=K, N=N, samples=100_000, seed=20240901))
        ks = ks_distance(sample, d)
        assert ks < 0.01, (K, N, ks)
        emp = float(np.mean(sample.values))
        exact = float(sle_moment(d, 1))
        stderr = float(np.std(sample.values, ddof=1)) / math.sqrt(len(sample))
        assert abs(emp - exact) <= 3 * stderr, (K, N, emp, exact, stderr)


def test_acceptance_closed_case_analytics():
    d = cached_dist(2, 2)
    assert d.pdf.segments == (Polynomial([3, -6, 3]),)       # 3(x-1)^2
    assert d.cdf.segments == (Polynomial([-1, 3, -3, 1]),)   # (y-1)^3
    assert quantile(d, 0.5) == pytest.approx(1 + 2 ** (-1 / 3), abs=1e-10)


def test_acceptance_determinism_and_round_trip():
    for K, N in [(2, 2), (3, 10), (6, 6)]:
        t = cached_table(K, N)
        assert table_from_json(table_to_json(t)) == t, (K, N)
    cmd = [sys.executable, "-m", "sledist.cli"]
    for args in (
        ["coeffs", "--K", "3", "--N", "7"],
        ["cdf", "--K", "2", "--N", "5", "--grid", "32"],
        ["moments", "--K", "2", "--N", "4"],
    ):
        a = subprocess.run(cmd + args, capture_output=True, check=True)
        b = subprocess.run(cmd + args, capture_output=True, check=True)
        assert a.stdout == b.stdout and a.stdout, args

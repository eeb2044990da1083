"""Piecewise distribution assembly, float evaluation, quantiles, and moments."""

import copy
import io
import math
import pickle
import sys
from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sledist import distributions
from sledist import (
    ConsistencyError,
    PiecewisePolynomial,
    Polynomial,
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

from conftest import EXACT_CONFIGS, MOMENT_CONFIGS, cached_dist, cached_table
from oracles import (
    chebyshev_model_reference,
    eval_many_reference,
    eval_reference,
    lambda1_moment_reference,
    quantile_reference,
    reciprocal_factorial,
    sle_cdf_fractions,
    sle_moment_reference,
    sle_pdf_fractions,
)
from polyops import scale, shift_powers
from sturm import count_real_roots


# --- oracles: the earlier Fraction assembly and the paper's CDF series ----------


def _binomial_pdf(table):
    """Density by the Fraction binomial expansion of every (K/i - x)^e, block by block."""
    K, N = table.K, table.N
    KN = K * N
    pref = F(math.factorial(KN - 1), K ** (KN - 1))
    per_block = {}
    for i in range(1, K + 1):
        acc = {}
        for (ii, j), c in table.entries.items():
            if ii != i or not c:
                continue
            e = KN - j - 2
            w = pref * c * F(i**e, math.factorial(e))
            Ki = F(K, i)
            b = Ki**e
            for t in range(e + 1):
                acc[j + t] = acc.get(j + t, F(0)) + (w * b if t % 2 == 0 else -w * b)
                if t < e:
                    b = b * (e - t) / ((t + 1) * Ki)
        deg = max(acc, default=0)
        per_block[i] = Polynomial([acc.get(p, F(0)) for p in range(deg + 1)])
    segments = []
    for t in range(K - 1):
        seg = Polynomial()
        for i in range(1, K - t):
            seg = seg + per_block[i]
        segments.append(seg)
    return PiecewisePolynomial([F(K, i) for i in range(K, 0, -1)], segments)


def _series_cdf(table):
    """CDF by the paper's series: each gated block's antiderivative, frozen past K/i."""
    K, N = table.K, table.N
    KN = K * N
    pref = F(math.factorial(KN - 1), K ** (KN - 1))
    block_poly = {}
    block_frozen = {}
    base = F(0)
    for i in range(1, K + 1):
        acc = {}
        for (ii, j), c in table.entries.items():
            if ii != i or not c:
                continue
            e = KN - j - 2
            w = pref * c * i**e
            scale = F(K, i) ** e
            for q in range(KN - j):
                rf = reciprocal_factorial(e - q)
                if rf:
                    coef = w * scale * F(-i, K) ** q * rf / (math.factorial(q) * (j + q + 1))
                    acc[q + j + 1] = acc.get(q + j + 1, F(0)) + coef
        deg = max(acc, default=0)
        p = Polynomial([acc.get(k, F(0)) for k in range(deg + 1)])
        block_poly[i] = p
        block_frozen[i] = p(F(K, i))
        base += p(F(1))
    segments = []
    for t in range(K - 1):
        active = K - 1 - t
        seg = Polynomial()
        for i in range(1, active + 1):
            seg = seg + block_poly[i]
        const = sum((block_frozen[i] for i in range(active + 1, K + 1)), F(0)) - base
        segments.append(seg + Polynomial([const]))
    return PiecewisePolynomial(
        [F(K, i) for i in range(K, 0, -1)], segments, outside_low=0, outside_high=1
    )


# the (4, 100) oracles take about 10 s; (8, 8) adds a larger K
ORACLE_CONFIGS = [c for c in EXACT_CONFIGS if c != (4, 100)] + [(8, 8)]


@pytest.mark.parametrize("K,N", ORACLE_CONFIGS)
def test_pdf_matches_binomial_oracle(K, N):
    pdf = build_sle_pdf(cached_table(K, N))
    oracle = _binomial_pdf(cached_table(K, N))
    for seg, expected in zip(pdf.segments, oracle.segments, strict=True):
        assert seg == expected
    assert pdf == oracle


@pytest.mark.parametrize("K,N", EXACT_CONFIGS + [(4, 47), (4, 59), (8, 11), (9, 10), (2, 300)])
def test_integer_assembly_matches_the_fraction_assembly(K, N):
    d = cached_dist(K, N)
    pdf = sle_pdf_fractions(cached_table(K, N))
    for got, ref in ((d.pdf, pdf), (d.cdf, sle_cdf_fractions(K, pdf))):
        for seg, coeffs in zip(got.segments, ref, strict=True):
            expected = Polynomial(coeffs)
            assert seg == expected and hash(seg) == hash(expected)
            assert seg.coefficients == coeffs


@pytest.mark.parametrize("K,N", ORACLE_CONFIGS)
def test_cdf_matches_series_oracle(K, N):
    cdf = build_sle_cdf(build_sle_pdf(cached_table(K, N)))
    oracle = _series_cdf(cached_table(K, N))
    for seg, expected in zip(cdf.segments, oracle.segments, strict=True):
        assert seg == expected
    assert cdf == oracle


# --- closed smallest case -----------------------------------------------------


def test_k2n2_pdf_is_shifted_square():
    pdf = cached_dist(2, 2).pdf
    assert pdf.breakpoints == (F(1), F(2))
    assert pdf.segments == (Polynomial([3, -6, 3]),)


def test_k2n2_cdf_is_shifted_cube():
    cdf = cached_dist(2, 2).cdf
    assert cdf.segments == (Polynomial([-1, 3, -3, 1]),)


def test_k2n2_pointwise_values():
    d = cached_dist(2, 2)
    assert d.pdf.value_exact(F(1)) == 0
    assert d.pdf.value_exact(F(2)) == 3
    assert d.pdf.eval(1.5) == pytest.approx(0.75, abs=1e-14)
    assert d.cdf.eval(2.0) == 1.0
    assert d.cdf.eval(0.5) == 0.0
    assert d.pdf.eval(0.99) == 0.0
    assert d.pdf.eval(2.01) == 0.0
    assert d.cdf.eval(5.0) == 1.0


def test_k2n2_moments_match_sympy_oracle():
    d = cached_dist(2, 2)
    x = sympy.symbols("x")
    for m in range(0, 4):
        oracle = sympy.integrate(x**m * 3 * (x - 1) ** 2, (x, 1, 2))
        assert sle_moment(d, m) == F(int(oracle.p), int(oracle.q))


def test_k2n2_quantile_closed_form():
    d = cached_dist(2, 2)
    assert quantile(d, 0.5) == pytest.approx(1 + 2 ** (-1 / 3), abs=1e-10)
    assert quantile(d, 0.0) == 1.0
    assert quantile(d, 1.0) == 2.0


def test_k2n2_threshold_closed_form():
    d = cached_dist(2, 2)
    assert threshold_for_false_alarm(d, 0.001) == pytest.approx(1 + 0.999 ** (1 / 3), abs=1e-10)
    assert threshold_for_false_alarm(d, 0.5) == quantile(d, 0.5)


def test_k2n2_mellin_anchor():
    # E[lambda_max] = 7/2 factors into E[X] * E[T] = (7/4) * 2
    t = cached_table(2, 2)
    d = cached_dist(2, 2)
    assert lambda1_moment(t, 2) == F(7, 2)
    assert sle_moment(d, 1) == F(7, 4)
    assert trace_moment(2, 2, 2) == 2
    assert lambda1_moment(t, 2) == sle_moment(d, 1) * trace_moment(2, 2, 2)


# --- construction invariants ----------------------------------------------------


@pytest.mark.parametrize("K,N", MOMENT_CONFIGS)
def test_moments_equal_fraction_sums(K, N):
    t, d = cached_table(K, N), cached_dist(K, N)
    for z in range(1, 10):
        assert lambda1_moment(t, z) == lambda1_moment_reference(t, z), (K, N, z)
    for m in range(9):
        assert sle_moment(d, m) == sle_moment_reference(d, m), (K, N, m)


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@given(
    st.lists(st.lists(small_fractions, max_size=6).map(Polynomial), min_size=1, max_size=4),
    st.lists(small_fractions, min_size=5, max_size=5, unique=True),
    st.integers(0, 4),
)
@settings(max_examples=80, deadline=None)
def test_integral_against_x_power_equals_telescoping(segments, points, m):
    # any sign, zero and zero segments: the integer path must not assume SLE breakpoints
    pw = PiecewisePolynomial(sorted(points)[: len(segments) + 1], segments)
    assert pw.integral(m) == sle_moment_reference(SimpleNamespace(pdf=pw), m)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_pdf_total_mass_exact(K, N):
    assert cached_dist(K, N).pdf.integral() == 1


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_cdf_boundary_values_exact(K, N):
    cdf = cached_dist(K, N).cdf
    assert cdf.value_exact(F(1)) == 0
    assert cdf.value_exact(F(K)) == 1


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_cdf_derivative_equals_pdf(K, N):
    d = cached_dist(K, N)
    for cseg, pseg in zip(d.cdf.segments, d.pdf.segments):
        assert cseg.derivative() == pseg


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_cdf_continuous_at_breakpoints(K, N):
    cdf = cached_dist(K, N).cdf
    for t in range(len(cdf.segments) - 1):
        b = cdf.breakpoints[t + 1]
        assert cdf.segments[t](b) == cdf.segments[t + 1](b)


def test_table_distribution_and_model_refuse_assignment_but_copy():
    d = cached_dist(3, 10)
    d.cdf.eval(1.5)
    model = next(iter(d.cdf._models.values()))
    for obj, field in ((d.table, "K"), (d, "pdf"), (model, "tail")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = None
    for restored in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert restored.table == d.table and restored.cdf == d.cdf
        assert repr(next(iter(restored.cdf._models.values()))) == repr(model)
        assert quantile(restored, 0.9) == quantile(d, 0.9)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_breakpoints_are_harmonic_points(K, N):
    pdf = cached_dist(K, N).pdf
    assert pdf.breakpoints == tuple(F(K, i) for i in range(K, 0, -1))


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_pdf_nonnegative_at_chebyshev_points(K, N):
    # float grid points are exact binary rationals, so the check is rigorous
    pdf = cached_dist(K, N).pdf
    count = 16 if K * N >= 256 else 64
    for t, seg in enumerate(pdf.segments):
        lo = float(pdf.breakpoints[t])
        hi = float(pdf.breakpoints[t + 1])
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        for s in range(count):
            x = mid + half * math.cos(math.pi * (2 * s + 1) / (2 * count))
            assert seg(F(x)) >= 0


@pytest.mark.parametrize("K,N", [(2, 2), (2, 10), (3, 10), (4, 10), (6, 6)])
def test_pdf_positive_inside_segments_by_root_counting(K, N):
    # no interior roots plus a positive midpoint proves positivity on the
    # open segment; endpoints are checked directly
    pdf = cached_dist(K, N).pdf
    for t, seg in enumerate(pdf.segments):
        lo, hi = pdf.breakpoints[t], pdf.breakpoints[t + 1]
        interior = count_real_roots(seg, lo, hi) - (1 if seg(hi) == 0 else 0)
        assert interior == 0
        assert seg((lo + hi) / 2) > 0
        assert seg(lo) >= 0 and seg(hi) >= 0


def test_scaled_distribution_rejected():
    d = cached_dist(2, 10)
    doubled = PiecewisePolynomial(
        d.pdf.breakpoints, [scale(seg, 2) for seg in d.pdf.segments]
    )
    with pytest.raises(ConsistencyError):
        SleDistribution(table=d.table, pdf=doubled, cdf=d.cdf)


def test_scaled_distribution_with_derived_cdf_rejected():
    # the derived CDF is continuous and differentiates to the doubled PDF, so
    # only the unit-mass and F(K) = 1 checks can catch it
    d = cached_dist(2, 10)
    doubled = PiecewisePolynomial(
        d.pdf.breakpoints, [scale(seg, 2) for seg in d.pdf.segments]
    )
    cdf = build_sle_cdf(doubled)
    for cseg, pseg in zip(cdf.segments, doubled.segments):
        assert cseg.derivative() == pseg
    with pytest.raises(ConsistencyError):
        SleDistribution(table=d.table, pdf=doubled, cdf=cdf)


def _cdf_plus(d, add, segments):
    """``d``'s PDF, and its CDF with ``add(b_t, b_t+1)`` added to each segment t in ``segments``."""
    bps = d.cdf.breakpoints
    segs = [seg + add(bps[t], bps[t + 1]) if t in segments else seg for t, seg in enumerate(d.cdf.segments)]
    return {"pdf": d.pdf, "cdf": PiecewisePolynomial(bps, segs, 0, 1)}


def _constant(lo, hi):
    return Polynomial([F(1, 7)])


def _vanishing_at_the_ends(lo, hi):
    # (x - lo)(x - hi) / 7 keeps the segment's values at both breakpoints
    return Polynomial([lo * hi / 7, -(lo + hi) / 7, F(1, 7)])


@pytest.mark.parametrize(
    "tamper,message",
    [
        (
            lambda d: {"pdf": PiecewisePolynomial(d.pdf.breakpoints[:3], d.pdf.segments[:2]), "cdf": d.cdf},
            r"PDF span 1\.\.2 is not \[1, 4\]",
        ),
        (
            lambda d: {"pdf": d.pdf, "cdf": PiecewisePolynomial((1, F(3, 2), 2, 4), d.cdf.segments, 0, 1)},
            "PDF and CDF disagree on breakpoints",
        ),
        (lambda d: _cdf_plus(d, _constant, {0, 1, 2}), "CDF is nonzero at the lower support endpoint"),
        (lambda d: _cdf_plus(d, _constant, {2}), "CDF does not reach 1 at the upper support endpoint"),
        (lambda d: _cdf_plus(d, _vanishing_at_the_ends, {1}), "CDF derivative differs from PDF on segment 1"),
        (lambda d: _cdf_plus(d, _constant, {1}), "CDF jumps at breakpoint 4/3"),
    ],
    ids=["span", "breakpoints", "lower-end", "upper-end", "derivative", "jump"],
)
def test_each_distribution_check_raises_its_own_message(tamper, message):
    # each tampering passes every check before the one it targets
    d = cached_dist(4, 10)
    with pytest.raises(ConsistencyError, match=message):
        SleDistribution(table=d.table, **tamper(d))


# --- float evaluation -------------------------------------------------------------


@pytest.mark.parametrize("K,N", [(2, 10), (4, 10), (6, 6), (4, 100)])
def test_float_eval_matches_exact_rational(K, N):
    d = cached_dist(K, N)
    xs = np.linspace(1.0, float(K), 41)
    for x in xs:
        for pp in (d.pdf, d.cdf):
            exact = float(pp.value_exact(F(x)))
            assert pp.eval(float(x)) == pytest.approx(exact, abs=5e-13)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_cdf_monotone_on_dense_grid(K, N):
    cdf = cached_dist(K, N).cdf
    grid = default_grid(K, 2048)
    vals = cdf.eval_many(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_float_model_without_overflow_warning():
    # the mass bound sum |a_k| 40^k overflows a double here; under the
    # error::RuntimeWarning filter any overflow warning fails the test
    pp = PiecewisePolynomial([1, 40], [shift_powers(Polynomial([F(1, 40**200)]), 200)])
    for x in (1.0, 7.5, 30.0, 39.0, 40.0):
        exact = float(pp.value_exact(F(x)))
        assert pp.eval(x) == pytest.approx(exact, abs=1e-13)


def test_eval_many_near_the_double_range_without_overflow_warning():
    # eval_many looks for node hits in the sum of the squared values, which
    # overflows here; so would any warning under the error::RuntimeWarning filter
    pp = PiecewisePolynomial([1, 2], [Polynomial([F(10**200)])])
    assert pp.eval_many([1.0, 1.5, 2.0]).tolist() == [1e200] * 3


# the acceptance set plus a long-N shape and two larger K
DENSE_CONFIGS = EXACT_CONFIGS + [(4, 40), (8, 8), (10, 10)]


@pytest.mark.parametrize("K,N", DENSE_CONFIGS)
def test_eval_many_matches_exact_on_dense_grid(K, N):
    # each segment's grid runs from its left breakpoint to the last double
    # below its right one; the final breakpoint K closes the grid
    d = cached_dist(K, N)
    per_segment = 64 if K * N < 150 else 24
    bps = [float(b) for b in d.pdf.breakpoints]
    xs = [float(K)]
    for lo, hi in zip(bps, bps[1:]):
        xs.extend(np.linspace(lo, np.nextafter(hi, -np.inf), per_segment).tolist())
    xs = np.array(xs)
    for pp in (d.pdf, d.cdf):
        exact = np.array([float(pp.value_exact(F(x))) for x in xs])
        assert np.max(np.abs(pp.eval_many(xs) - exact)) <= 1e-13
        # every segment's model records the exact Chebyshev tail it dropped
        assert all(0 <= m.tail < F(2.5e-14) for m in pp._models.values())


def test_overflowing_segment_rejected():
    # x^200 reaches 1e320 at x = 40, past the largest double
    pp = PiecewisePolynomial([1, 40], [shift_powers(Polynomial([1]), 200)])
    with pytest.raises(ValueError, match="segment 0 on \\[1, 40\\]"):
        pp.eval(1.5)


def _assert_models_match_reference(pw):
    for t, seg in enumerate(pw.segments):
        model = pw._model(t)
        *want, tail = chebyshev_model_reference(seg, pw.breakpoints[t], pw.breakpoints[t + 1])
        for got, ref in zip((model.nodes, model.values, model.weighted), want):
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.array_equal(_bits(got), _bits(ref))
        assert model.tail == tail


def test_value_just_below_the_overflow_threshold_reads_the_largest_double():
    # T rounds past the double range and T - 2^-2000 to the largest double:
    # the fixed-point interval reaches T, so exact Horner decides
    T = 2**1024 - 2**970
    pp = PiecewisePolynomial([1, 2], [Polynomial([F(T * 2**2000 - 1, 2**2000)])])
    assert pp._model(0).values.tolist() == [sys.float_info.max] * 2
    assert pp.eval(1.0) == pp.eval(2.0) == sys.float_info.max


def _exact_float(A, D, x):
    return float(F(sum(a * F(x) ** k for k, a in enumerate(A)), D))


dyadics = st.builds(lambda m, e: m / 2**e, st.integers(-(40 << 20), 40 << 20), st.integers(0, 20))


node_value_cases = given(
    st.lists(st.integers(-(2**120), 2**120), min_size=1, max_size=24),
    st.integers(1, 2**80),
    st.lists(st.one_of(dyadics, st.floats(-40.0, 40.0)), min_size=1, max_size=8),
)


@node_value_cases
@settings(max_examples=200, deadline=None)
def test_fixed_point_values_are_the_exact_values_rounded(A, D, xs):
    # any sign of coefficient and of x, x = 0, |x| < 1, subnormal x, up to 40
    assert distributions._node_values(A, D, xs) == [_exact_float(A, D, x) for x in xs]


@node_value_cases
@settings(max_examples=200, deadline=None)
def test_exact_horner_settles_what_few_fraction_bits_leave_open(A, D, xs):
    # F only 13 bits past the bound: exact Horner decides about two nodes in three
    with mock.patch.object(distributions, "_GUARD_BITS", -40):
        assert distributions._node_values(A, D, xs) == [_exact_float(A, D, x) for x in xs]


def test_rounding_midpoint_goes_to_exact_horner():
    # p(3/4) = 1 + 3*2^-53, halfway between two doubles, which rounds up to
    # even; the floors of x/3 leave the fixed-point sum just below it, so only
    # an interval that holds the exact value leaves the choice to exact Horner
    midpoint = 1 + F(3, 2**53)
    A, D = Polynomial([midpoint - F(1, 4), F(1, 3)]).integer_form()
    assert distributions._node_values(A, D, [0.75]) == [1 + 2.0**-51]


def test_interval_holding_0_goes_to_exact_horner_below_the_double_range():
    # x = 2 puts F past 1200 bits, so at x = 0 the ends of acc -+ E both round
    # to a zero, -0.0 and +0.0; exact Horner gives the exact 0 its sign
    A, D = [0] * 1100 + [1], 2**1100
    values = distributions._node_values(A, D, [0.0, 2.0])
    assert values == [0.0, 1.0] and math.copysign(1.0, values[0]) == 1.0


def _recording_fallbacks(monkeypatch):
    fallbacks = []
    exact = distributions._exact_value

    def recording(A, D, x):
        value = exact(A, D, x)
        fallbacks.append((x, value))
        return value

    monkeypatch.setattr(distributions, "_exact_value", recording)
    return fallbacks


@pytest.mark.parametrize("K,N", [(4, 10), (6, 6), (4, 40)])
def test_zero_density_nodes_take_the_exact_fallback(monkeypatch, K, N):
    # the density is exactly 0 at x = 1 and x = K: the interval holds 0 at any F
    fallbacks = _recording_fallbacks(monkeypatch)
    pdf = sle_distribution(cached_table(K, N)).pdf
    models = [pdf._model(t) for t in range(len(pdf.segments))]
    assert (1.0, 0.0) in fallbacks and (float(K), 0.0) in fallbacks
    for value in (models[0].values[0], models[-1].values[-1]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # the fixed-point path decides most nodes
    assert len(fallbacks) < sum(len(m.nodes) for m in models) / 3


def test_too_few_fraction_bits_fall_back_to_exact_horner(monkeypatch):
    # an F below the error bound leaves nodes open, and exact Horner decides them
    monkeypatch.setattr(distributions, "_GUARD_BITS", -60)
    fallbacks = _recording_fallbacks(monkeypatch)
    d = sle_distribution(cached_table(4, 40))
    for pw in (d.pdf, d.cdf):
        _assert_models_match_reference(pw)
    assert len(fallbacks) > 4


def test_eval_rejects_nan():
    d = cached_dist(2, 10)
    with pytest.raises(ValueError):
        d.cdf.eval(float("nan"))
    for xs in ([1.2, float("nan")], [float("nan")], float("nan")):
        with pytest.raises(ValueError):
            d.cdf.eval_many(np.array(xs))


def _probe_points(pw, K):
    """Every model node and breakpoint with both neighbouring doubles, and points off [1, K]."""
    nodes = [pw._model(t).nodes for t in range(len(pw.segments))]
    near = np.concatenate(nodes + [[float(b) for b in pw.breakpoints]])
    off = [-np.inf, -1.0, 0.0, 0.5, K + 0.5, 2.0 * K, np.inf]
    return np.append(_with_neighbours(near), off)


def _with_neighbours(values):
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _pairs(xs):
    """The (x, 1) rows ``_ChebModel.__call__`` takes."""
    return np.column_stack([xs, np.ones_like(xs)])


def _assert_difference_rounds_once(xs, shift, nodes, rows):
    # each point as a one-row block, which may take another BLAS kernel, or all
    # of them, repeated, as one block of the given rows
    blocks = [xs[i : i + 1] for i in range(len(xs))] if rows == 1 else [np.resize(xs, rows)]
    for block in blocks:
        assert np.array_equal(_bits(_pairs(block) @ shift), _bits(block[:, None] - nodes))


@pytest.mark.parametrize("rows", [1, 4096])
def test_difference_product_rounds_once(rows):
    # [x, 1] @ [1; -n] = x*1 + 1*(-n) is two exact products, so one rounding
    # gives x - n bit for bit, +0.0 at x == n; a BLAS that rounds twice fails here
    rng = np.random.default_rng(rows)
    for K, N in EXACT_CONFIGS:
        d = cached_dist(K, N)
        bps = np.array([float(b) for b in d.pdf.breakpoints])
        for pw in (d.pdf, d.cdf):
            for t in range(len(pw.segments)):
                nodes, _, _, shift = pw._model(t)._numpy()
                xs = np.append(_with_neighbours(np.append(nodes, bps)), rng.uniform(1, 1000, 64))
                _assert_difference_rounds_once(xs, shift, nodes, rows)
    for m in (2, 34, 57):
        nodes = rng.uniform(1, 1000, m)
        shift = np.array([np.ones(m), -nodes])
        xs = rng.permutation(np.append(_with_neighbours(nodes), rng.uniform(1, 1000, 256)))
        _assert_difference_rounds_once(xs, shift, nodes, rows)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS + [(4, 40), (4, 58), (8, 8), (9, 10)])
def test_eval_is_bit_identical_to_the_reference_dispatch(K, N):
    d = cached_dist(K, N)
    rng = np.random.default_rng(1000 * K + N)
    for pw in (d.pdf, d.cdf):
        probes = _probe_points(pw, K)
        scalar = [pw.eval(x) for x in probes.tolist()]
        assert np.array_equal(_bits(scalar), _bits([eval_reference(pw, x) for x in probes.tolist()]))
        batches = [probes, rng.permutation(probes), np.float64(0.5 * (1 + K)), probes[:12].reshape(3, 4)]
        for n in (0, 1, 2, 16, 4097):
            batches += [rng.choice(probes, n), rng.uniform(0.5, K + 0.5, n)]
        # one segment's 4097 points cross the 4096-point block
        first = (float(pw.breakpoints[0]), float(pw.breakpoints[1]))
        batches.append(rng.uniform(*first, 4097))
        # the CLI's curve grid, and the sorted batch ks_distance sends
        batches += [default_grid(K, 512), np.sort(rng.uniform(1, K, 100_000))]
        if len(pw.segments) > 1:
            # a one-row block beside a full one and its one-row remainder
            last = (float(pw.breakpoints[-2]), float(pw.breakpoints[-1]))
            batches.append(rng.permutation(np.append(rng.uniform(*first, 4097), rng.uniform(*last))))
        for xs in batches:
            got, want = pw.eval_many(xs), eval_many_reference(pw, xs)
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize(
    "K,N", EXACT_CONFIGS + [(4, 40), (4, 52), (4, 58), (4, 64), (8, 8), (9, 10), (2, 300)]
)
def test_models_on_python_floats_match_the_numpy_construction(K, N):
    # pins math.cos to np.cos on every node a model uses, the PDF's series
    # derived from the CDF's and the fixed-point values to the exact ones
    d = cached_dist(K, N)
    for pw in (d.pdf, d.cdf):
        _assert_models_match_reference(pw)


@pytest.mark.parametrize("K,N", [(2, 10), (4, 10), (8, 8)])
def test_derivative_series_equals_the_converted_one(K, N):
    # as rationals, term by term: the chop reads the terms from 1 up, so this
    # is also what pins the constant term
    d = cached_dist(K, N)
    bps = d.pdf.breakpoints
    cases = list(zip(d.cdf.segments, d.pdf.segments, bps, bps[1:]))
    cases.append((Polynomial([F(5, 7), -3, F(1, 2)]), Polynomial([-3, 1]), F(-2, 3), F(5, 2)))
    cases.append((Polynomial([F(9, 4)]), Polynomial(), F(1), F(2)))
    for anti, seg, lo, hi in cases:
        series = distributions._chebyshev_series(anti, lo, hi)
        got, got_den = distributions._derivative_series(series, lo, hi)
        want, want_den = distributions._chebyshev_series(seg, lo, hi)
        assert [F(c, got_den) for c in got] == [F(c, want_den) for c in want]


def _counting_conversions(monkeypatch):
    converted = []
    convert = distributions._chebyshev_series

    def counting(seg, lo, hi):
        converted.append(seg)
        return convert(seg, lo, hi)

    monkeypatch.setattr(distributions, "_chebyshev_series", counting)
    return converted


@pytest.mark.parametrize("pdf_first", [True, False])
@pytest.mark.parametrize("K,N", [(4, 10), (8, 8), (4, 47)])
def test_models_match_reference_whichever_is_built_first(monkeypatch, K, N, pdf_first):
    # a fresh distribution: one conversion per segment, of the CDF's segment
    converted = _counting_conversions(monkeypatch)
    d = sle_distribution(cached_table(K, N))
    for pw in (d.pdf, d.cdf) if pdf_first else (d.cdf, d.pdf):
        _assert_models_match_reference(pw)
    assert converted == list(d.cdf.segments)


def test_hand_built_density_converts_its_own_segments(monkeypatch):
    # no distribution links it to an antiderivative, so it takes the direct conversion
    converted = _counting_conversions(monkeypatch)
    d = cached_dist(4, 10)
    pdf = PiecewisePolynomial(d.pdf.breakpoints, d.pdf.segments)
    _assert_models_match_reference(pdf)
    assert converted == list(pdf.segments)


@pytest.mark.parametrize("K,N", [(2, 10), (4, 40), (8, 8)])
def test_rounding_bound_never_contradicts_blas(K, N):
    # p within 4096 ulps of the BLAS value, or anywhere; on and beside nodes too
    d = cached_dist(K, N)
    rng = np.random.default_rng(100 * K + N)
    decided = undecided = 0
    for pw in (d.pdf, d.cdf):
        for t in range(len(pw.segments)):
            model = pw._model(t)
            lo, hi = float(pw.breakpoints[t]), float(pw.breakpoints[t + 1])
            near = rng.choice(model.nodes, 8).tolist()
            xs = rng.uniform(lo, hi, 80).tolist() + near + [math.nextafter(x, hi) for x in near]
            for x in xs:
                value = model.at(x)
                bounds = model.interval(x)
                assert bounds is None or bounds[0] <= value <= bounds[1], (t, x)
                shifts = [0] + rng.integers(-4096, 4097, 4).tolist()
                ps = [value + k * math.ulp(value) for k in shifts]
                ps += [rng.uniform(), rng.uniform(0.0, 2.0) * value]
                for p in ps:
                    if bounds is None or bounds[0] < p <= bounds[1]:
                        undecided += 1
                    else:
                        decided += 1
    # both paths ran: the bound decided most steps and left some to BLAS
    assert decided > undecided > 0


def test_eval_many_shapes_and_outside():
    d = cached_dist(2, 10)
    xs = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = d.cdf.eval_many(xs)
    assert out.shape == xs.shape
    assert out[0, 0] == 0.0 and out[1, 1] == 1.0


def test_piecewise_structure_validation():
    with pytest.raises(ValueError):
        PiecewisePolynomial([1, 1], [Polynomial([1])])
    with pytest.raises(ValueError):
        PiecewisePolynomial([1, 2, 3], [Polynomial([1])])


def test_segment_index_convention():
    pp = cached_dist(4, 10).pdf
    assert pp.segment_index(F(1)) == 0
    assert pp.segment_index(F(4, 3)) == 1  # right-continuous at breakpoints
    assert pp.segment_index(F(4)) == 2
    with pytest.raises(ValueError):
        pp.segment_index(F(9, 2))
    # every breakpoint and segment midpoint at (6,6) against a linear scan
    pp = cached_dist(6, 6).pdf
    bps = pp.breakpoints
    points = [*bps, *((lo + hi) / 2 for lo, hi in zip(bps, bps[1:]))]
    for x in points:
        owner = max(t for t in range(len(pp.segments)) if bps[t] <= x)
        assert pp.segment_index(x) == owner, x
    with pytest.raises(ValueError):
        pp.segment_index(F(99, 100))


# --- quantiles ----------------------------------------------------------------


@pytest.mark.parametrize("K,N", [(2, 10), (3, 10), (6, 6)])
def test_quantile_inverts_cdf(K, N):
    d = cached_dist(K, N)
    for y in np.linspace(1.05, float(K) - 0.05, 17):
        p = d.cdf.eval(float(y))
        # inversion is well conditioned only where the density is not tiny
        if 1e-9 < p < 1 - 1e-9 and d.pdf.eval(float(y)) > 1e-3:
            assert quantile(d, p) == pytest.approx(float(y), abs=1e-10)


@given(st.floats(0.01, 0.99))
@settings(max_examples=30, deadline=None)
def test_quantile_lands_on_probability(p):
    d = cached_dist(2, 10)
    q = quantile(d, p)
    assert 1.0 <= q <= 2.0
    assert d.cdf.eval(q) == pytest.approx(p, abs=1e-9)


def test_quantile_domain_errors():
    d = cached_dist(2, 10)
    with pytest.raises(ValueError):
        quantile(d, -0.1)
    with pytest.raises(ValueError):
        quantile(d, 1.1)
    with pytest.raises(ValueError):
        threshold_for_false_alarm(d, 0.0)
    with pytest.raises(ValueError):
        threshold_for_false_alarm(d, 1.0)


def test_threshold_rejects_alpha_where_one_minus_alpha_rounds_to_one():
    # at these 1.0 - alpha == 1.0, and the threshold would read K
    d = cached_dist(4, 10)
    for alpha in (2.0**-54, 1e-17):
        with pytest.raises(ValueError, match="rounds to 1"):
            threshold_for_false_alarm(d, alpha)
    assert threshold_for_false_alarm(d, 1e-16) == 3.646377754910077
    # just above the guard 1.0 - alpha rounds to 1 - 2**-53, so the answer is
    # only as close as that rounding allows, but it lies below K
    alpha = math.nextafter(2.0**-54, 1.0)
    t = threshold_for_false_alarm(d, alpha)
    assert t < d.table.K and t == quantile(d, 1.0 - alpha)


def test_threshold_complements_quantile():
    d = cached_dist(3, 10)
    assert threshold_for_false_alarm(d, 0.25) == quantile(d, 0.75)
    # a laxer false-alarm budget always lowers the detection threshold
    alphas = [0.001, 0.01, 0.1, 0.5, 0.9]
    gammas = [threshold_for_false_alarm(d, a) for a in alphas]
    assert gammas == sorted(gammas, reverse=True)
    assert all(1.0 < g < 3.0 for g in gammas)


def _near_breakpoint_levels(d) -> list[float]:
    """p at each exact breakpoint level, and one and two margins and 5e-10, 1e-9
    and 2e-9 to either side, inside (0, 1)."""
    margin = distributions._PROBE_MARGIN
    ps = set()
    for b in d.cdf.breakpoints:
        level = float(d.cdf.value_exact(b))
        for offset in (0.0, margin, 2.0 * margin, 5e-10, 1e-9, 2e-9):
            for p in (level - offset, level + offset):
                ps.add(min(max(p, 5e-324), math.nextafter(1.0, 0.0)))
    return sorted(ps)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS + [(4, 40), (8, 8), (2, 300)])
def test_cdf_one_ulp_beside_a_breakpoint_reads_near_its_exact_level(K, N):
    # the premise of quantile's one margin for breakpoint levels: beside a
    # breakpoint the float CDF lies within the certified 1e-13 of the exact
    # level, plus the density's move over the distance to the float there
    d = cached_dist(K, N)
    for b in d.cdf.breakpoints:
        level = d.cdf.value_exact(b)
        for x in (math.nextafter(float(b), -math.inf), math.nextafter(float(b), math.inf)):
            density = max(d.pdf.eval(x), d.pdf.eval(float(b)))
            slack = F(1e-13) + F(density) * abs(F(x) - b)
            assert abs(F(d.cdf.eval(x)) - level) <= slack, (b, x)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS + [(4, 40), (4, 41), (4, 53), (8, 8), (9, 9)])
def test_quantile_and_threshold_match_bisection_on_the_reference(K, N):
    # the CLI prints these with repr, so equal floats keep its output byte-identical;
    # near a breakpoint level, quantile decides steps from the exact levels
    d = cached_dist(K, N)
    for level in np.geomspace(1e-9, 0.5, 19).tolist():
        assert quantile(d, level) == quantile_reference(d, level)
        assert threshold_for_false_alarm(d, level) == quantile_reference(d, 1.0 - level)
    for p in _near_breakpoint_levels(d):
        assert quantile(d, p) == quantile_reference(d, p)
        alpha = 1.0 - p
        if 0 < alpha < 1:
            assert threshold_for_false_alarm(d, alpha) == quantile_reference(d, 1.0 - alpha)


@pytest.mark.parametrize(
    "K,N,t,side",
    [(4, 10, 1, math.inf), (8, 8, 5, math.inf), (5, 9, 2, -math.inf), (9, 10, 4, -math.inf)],
)
def test_bisection_to_adjacent_doubles_beside_a_breakpoint_matches_the_reference(
    K, N, t, side, monkeypatch
):
    # with p one ulp past breakpoint t's level, away from `side`, the reading at
    # nextafter(float(b), side) lies across p from the level, and bisection run to
    # adjacent doubles ends there: a breakpoint margin of zero would decide that
    # midpoint from the level and end on the other side of the breakpoint
    d = cached_dist(K, N)
    beside = math.nextafter(d._break_xs[t], side)
    p = math.nextafter(d._break_levels[t], -side)
    want = quantile_reference(d, p, xtol=0.0)
    assert want == beside
    monkeypatch.setattr(distributions, "_QUANTILE_XTOL", 0.0)
    assert quantile(d, p) == want


@pytest.mark.parametrize("K,N", [(2, 10), (4, 40), (8, 8)])
@pytest.mark.parametrize("cold", [False, True])
@pytest.mark.parametrize("offset", [distributions._PROBE_OFFSET, 0.5])
def test_narrowed_bracket_reads_beyond_the_margins(K, N, cold, offset, monkeypatch):
    # every midpoint at or below `below` reads under p and at or above `above` over it,
    # because the float CDF there lies more than the probe margin from p; at half a
    # margin the straddling probes read inside it and must move neither end
    d = cached_dist(K, N)
    distributions._load_numpy()
    monkeypatch.setattr(distributions, "_PROBE_OFFSET", offset)
    rng = np.random.default_rng(K * N)
    margin = distributions._PROBE_MARGIN
    for t in range(len(d.cdf.segments)):
        model = d.cdf._model(t)
        xs = rng.uniform(float(d.cdf.breakpoints[t]), float(d.cdf.breakpoints[t + 1]), 50).tolist()
        ps = [model.at(x) for x in xs]
        monkeypatch.setattr(distributions, "np", None if cold else np)
        brackets = [model.narrow(p, -math.inf, math.inf) for p in ps]
        monkeypatch.setattr(distributions, "np", np)
        for x, p, (below, above) in zip(xs, ps, brackets):
            assert below < x < above
            assert below == -math.inf or model.at(below) < p - margin
            assert above == math.inf or model.at(above) > p + margin


def _near_node_values(d) -> list[float]:
    """p at every fourth interior node value of each CDF segment, and one and two
    margins and 1e-9 and 2e-9 to either side."""
    margin = distributions._PROBE_MARGIN
    ps = set()
    for t in range(len(d.cdf.segments)):
        values = d.cdf._model(t)._lists[1]
        for v in values[1:-1:4]:
            for offset in (0.0, margin, 2.0 * margin, 1e-9, 2e-9):
                ps.update((v - offset, v + offset))
    return sorted(p for p in ps if 0.0 < p < 1.0)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS + [(4, 40), (8, 8)])
def test_quantile_and_threshold_match_bisection_near_node_values(K, N, monkeypatch):
    # node values and probes decide midpoints; on a node value, or within a
    # margin of one, they must decide none that plain bisection sends the other way
    d = cached_dist(K, N)
    distributions._load_numpy()
    cases = []
    for p in _near_node_values(d):
        alpha = 1.0 - p
        threshold = quantile_reference(d, 1.0 - alpha) if 0.0 < alpha < 1.0 else None
        cases.append((p, quantile_reference(d, p), alpha, threshold))
    for p, want, alpha, threshold in cases:
        assert quantile(d, p) == want, p
        if threshold is not None:
            assert threshold_for_false_alarm(d, alpha) == threshold, alpha
    # cold: no probes, steps read the rounding bound, and a fresh model per call has no arrays yet
    cold = sle_distribution(cached_table(K, N))
    for p, want, alpha, threshold in cases:
        for call, x, answer in ((quantile, p, want), (threshold_for_false_alarm, alpha, threshold)):
            if answer is not None:
                cold.cdf._models.clear()
                monkeypatch.setattr(distributions, "np", None)
                assert call(cold, x) == answer, p


@pytest.mark.parametrize("K,N,alpha", [(4, 41, 0.01), (4, 53, 0.001), (8, 8, 0.01), (9, 9, 0.1)])
def test_cold_threshold_builds_one_float_model(K, N, alpha):
    # the exact breakpoint levels decide every midpoint outside the answer's segment
    d = sle_distribution(cached_table(K, N))
    threshold = threshold_for_false_alarm(d, alpha)
    assert len(d.cdf._models) == 1
    # the reference bisection builds the models its midpoints touch
    assert threshold == quantile_reference(d, 1.0 - alpha)


# --- moment identities -----------------------------------------------------------


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_mellin_product_identity(K, N):
    t = cached_table(K, N)
    d = cached_dist(K, N)
    for z in range(1, 7):
        assert lambda1_moment(t, z) == sle_moment(d, z - 1) * trace_moment(K, N, z)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_moment_basics(K, N):
    d = cached_dist(K, N)
    assert sle_moment(d, 0) == 1
    assert lambda1_moment(cached_table(K, N), 1) == 1
    # X lives in [1, K]
    mean = sle_moment(d, 1)
    assert 1 < mean < K


def test_moment_domain_errors():
    d = cached_dist(2, 10)
    with pytest.raises(ValueError):
        sle_moment(d, -1)
    with pytest.raises(ValueError):
        lambda1_moment(cached_table(2, 10), 0)
    with pytest.raises(ValueError):
        trace_moment(2, 10, 0)


# --- the normalized trace ---------------------------------------------------------


def test_trace_moment_mean_is_n():
    for K, N in [(2, 2), (3, 7), (6, 6), (4, 100)]:
        assert trace_moment(K, N, 2) == N
        assert trace_moment(K, N, 1) == 1


# --- export ------------------------------------------------------------------------


def test_default_grid_contains_breakpoints():
    grid = default_grid(4, 100)
    for i in range(1, 5):
        assert float(F(4, i)) in grid
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == 1.0 and grid[-1] == 4.0


@pytest.mark.parametrize("n", [2, 3, 512, 1000])
@pytest.mark.parametrize("K", range(2, 11))
def test_default_grid_matches_union1d(K, n):
    bps = np.array([float(F(K, i)) for i in range(K, 0, -1)])
    expected = np.union1d(np.linspace(1.0, float(K), n), bps)
    grid = default_grid(K, n)
    assert grid.dtype == expected.dtype
    assert np.array_equal(grid.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_csv_cdf_within_unit_interval(K, N):
    d = cached_dist(K, N)
    buf = io.StringIO()
    write_distribution_csv(d, default_grid(K, 512), buf)
    rows = np.array([[float(v) for v in line.split(",")] for line in buf.getvalue().split()[1:]])
    pdf, cdf = rows[:, 1], rows[:, 2]
    assert np.all(pdf >= 0.0)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))


def test_csv_round_trips_values():
    d = cached_dist(2, 10)
    grid = default_grid(2, 64)
    buf = io.StringIO()
    write_distribution_csv(d, grid, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,pdf,cdf"
    assert len(lines) == 1 + len(grid)
    pdf_vals = d.pdf.eval_many(grid)
    cdf_vals = d.cdf.eval_many(grid)
    for line, x, f, c in zip(lines[1:], grid, pdf_vals, cdf_vals):
        sx, sf, sc = line.split(",")
        # shortest round-trip decimal: parsing back reproduces the doubles bit for bit
        assert float(sx) == x and float(sf) == f and float(sc) == c
    assert lines[-1].split(",")[2] == "1.0"

"""The determinant engine, and its agreement with the closed-form oracles."""

import json
import math
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sledist import (
    CoefficientTable,
    ConsistencyError,
    ExpPolySum,
    HankelSystem,
    Polynomial,
    ResourceLimitError,
    coefficient_table,
    d_constant,
    hankel_system,
    l_poly,
    table_from_json,
    table_to_json,
)
from sledist.coefficients import MAX_KN, _pack, _unpack, index_upper

from conftest import EXACT_CONFIGS, cached_table
from oracles import closed_form_k2, closed_form_k3


# --- L_a -------------------------------------------------------------------


def test_l_poly_hand_cases():
    # a = 0: (x^2 - 2x + 2) - 2 e^(-x)
    assert l_poly(0) == ExpPolySum({0: Polynomial([2, -2, 1]), 1: Polynomial([-2])})
    # a = 1: (x^2 - 4x + 6) - (2x + 6) e^(-x)
    assert l_poly(1) == ExpPolySum({0: Polynomial([6, -4, 1]), 1: Polynomial([-6, -2])})


@pytest.mark.parametrize("a", [0, 1, 2, 4, 7])
@pytest.mark.parametrize("x", [0.5, 2.0, 5.5])
def test_l_poly_matches_quadrature_oracle(a, x):
    # independent oracle: numerically integrate the defining integral
    with mpmath.mp.workprec(160):
        oracle = mpmath.quad(lambda t: t**a * (x - t) ** 2 * mpmath.e**-t, [0, x])
        got = sum(math.exp(-m * x) * float(p(F(x))) for m, p in l_poly(a).terms.items())
        assert abs(got - float(oracle)) < 1e-10 * max(1.0, float(oracle))


@pytest.mark.parametrize("a", [0, 1, 3, 10])
def test_l_poly_vanishes_at_origin(a):
    f = l_poly(a)
    assert sum(p(F(0)) for p in f.terms.values()) == 0


def test_l_poly_negative_rejected():
    with pytest.raises(ValueError):
        l_poly(-1)


# --- normalizing constant ---------------------------------------------------


def test_d_constant_hand_values():
    assert d_constant(2, 2) == 1
    assert d_constant(2, 3) == F(1, 2)
    assert d_constant(3, 3) == F(1, 4)


def test_d_constant_domain_errors():
    with pytest.raises(ValueError):
        d_constant(1, 5)
    with pytest.raises(ValueError):
        d_constant(3, 2)


# --- closed-form oracles ------------------------------------------------------


def test_closed_form_k2_smallest_case():
    t = closed_form_k2(2)
    assert t.nonzero() == {(1, 0): 2, (1, 1): -2, (1, 2): 1, (2, 0): -2}
    assert t.normalization() == 1


def test_closed_form_k2_block_bounds():
    t = closed_form_k2(7)
    for (i, j), c in t.nonzero().items():
        assert t.N - 2 <= j <= index_upper(2, i, t.N)


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        closed_form_k2(1)
    with pytest.raises(ValueError):
        closed_form_k3(2)
    with pytest.raises(ValueError):
        coefficient_table(1, 5)


def test_empty_summation_ranges_give_zero():
    # in-range indices whose displayed sums are empty must be stored as exact zeros
    t = closed_form_k3(3)
    assert set(t.entries) == {
        (i, j) for i in (1, 2, 3) for j in range(0, index_upper(3, i, 3) + 1)
    }


# --- determinant engine ------------------------------------------------------


def test_hankel_system_structure():
    sys = hankel_system(4, 6)
    for r in range(3):
        for s in range(3):
            assert sys.entries[r][s] == l_poly(2 + r + s)
    # entries depend on r+s only
    assert sys.entries[0][2] == sys.entries[1][1] == sys.entries[2][0]


@pytest.mark.parametrize("N", range(2, 31))
def test_engine_matches_k2_closed_form(N):
    assert coefficient_table(2, N).entries == closed_form_k2(N).entries


@pytest.mark.parametrize("N", [*range(3, 31), 100])
def test_engine_matches_k3_closed_form(N):
    engine, closed = coefficient_table(3, N), closed_form_k3(N)
    assert engine.entries == closed.entries
    assert hash(engine) == hash(closed)


def _five_term_expansion(N):
    L = {a: l_poly(a) for a in range(N - 4, N + 1)}
    return (
        (L[N - 1] * L[N - 2] * L[N - 3]).scale(2)
        + L[N] * L[N - 2] * L[N - 4]
        - L[N - 3] * L[N - 3] * L[N]
        - L[N - 1] * L[N - 1] * L[N - 4]
        - L[N - 2] * L[N - 2] * L[N - 2]
    )


@pytest.mark.parametrize("N", range(4, 16))
def test_k4_determinant_equals_five_term_expansion(N):
    assert hankel_system(4, N).determinant() == _five_term_expansion(N)


def test_k3_determinant_equals_two_by_two_expansion():
    for N in (3, 5, 9):
        L1, L2, L3 = l_poly(N - 1), l_poly(N - 2), l_poly(N - 3)
        assert hankel_system(3, N).determinant() == L1 * L3 - L2 * L2


def _det_exppoly(rows):
    """Division-free determinant over the ExpPolySum ring: the test oracle.

    Dynamic programming over column subsets: minor(S) is the determinant of
    the submatrix on rows 0..|S|-1 and columns S, built by expanding along the
    last row.  O(2^n * n) ring multiplications for an n x n matrix.
    """
    n = len(rows)
    minors = {0: ExpPolySum({0: Polynomial([1])})}
    for r in range(n):
        nxt = {}
        for subset, sub_det in minors.items():
            # insert each unused column c; its position among set bits fixes the sign
            for c in range(n):
                bit = 1 << c
                if subset & bit:
                    continue
                grown = subset | bit
                pos = bin(grown & (bit - 1)).count("1")
                term = rows[r][c] * sub_det
                if (r + pos) % 2:
                    term = -term
                acc = nxt.get(grown)
                nxt[grown] = term if acc is None else acc + term
        minors = nxt
    return minors[(1 << n) - 1]


@pytest.mark.parametrize(
    "K,N", [(K, N) for K in range(2, 7) for N in (K, K + 1, K + 4, 2 * K + 5, 20)] + [(8, 8)]
)
def test_determinant_matches_subset_dp(K, N):
    sys = hankel_system(K, N)
    assert sys.determinant() == _det_exppoly(sys.entries)


@pytest.mark.parametrize("K,N", EXACT_CONFIGS + [(8, 8)])
def test_table_matches_subset_dp_table(K, N, monkeypatch):
    engine = coefficient_table(K, N)
    monkeypatch.setattr(HankelSystem, "determinant", lambda self: _det_exppoly(self.entries))
    assert engine == coefficient_table(K, N)


def test_determinant_pivots_past_zero_entries():
    # zero pivots force row swaps, singular 2x2 pivot blocks force single
    # elimination steps, and an all-zero matrix has no pivot at all
    zero, a, b, c = ExpPolySum(), l_poly(1), l_poly(2), l_poly(3)
    for rows in (
        ((zero, a), (a, b)),
        ((zero, a, b), (a, b, c), (b, c, zero)),
        ((zero, zero, a), (zero, b, c), (a, c, b)),
        ((a, b, c), (a, b, a), (c, a, b)),
        ((a, b, c, a), (b, c, a, b), (c, a, b, c), (a, b, c, zero)),
        ((a, b, c, zero), (a, b, a, c), (b, zero, c, a), (c, a, zero, b)),
        ((zero, zero), (zero, zero)),
    ):
        sys = HankelSystem(K=len(rows) + 1, N=len(rows) + 1, entries=rows)
        assert sys.determinant() == _det_exppoly(rows)


def test_determinant_rejects_fractional_entries():
    half = ExpPolySum({1: Polynomial([F(1, 2)])})
    with pytest.raises(ConsistencyError):
        HankelSystem(K=2, N=2, entries=((half,),)).determinant()


def test_coefficient_table_k10_builds_and_normalizes():
    assert coefficient_table(10, 10).normalization() == 1


@given(st.lists(st.integers(-(2**63) + 1, 2**63 - 1), max_size=12))
@settings(max_examples=60, deadline=None)
def test_pack_unpack_round_trip(coeffs):
    got = _unpack(_pack(coeffs, 8), 8)
    assert got[: len(coeffs)] == coeffs and not any(got[len(coeffs) :])


@given(st.integers(2, 9))
@settings(max_examples=8, deadline=None)
def test_engine_normalization_property(N):
    assert coefficient_table(2, N).normalization() == 1


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_table_normalizes_exactly(K, N):
    assert cached_table(K, N).normalization() == 1


@pytest.mark.parametrize("K,N", EXACT_CONFIGS)
def test_nonzero_entries_inside_bounds(K, N):
    t = cached_table(K, N)
    for (i, j), c in t.nonzero().items():
        assert 1 <= i <= K
        assert N - K <= j <= index_upper(K, i, N)


# --- density sanity ----------------------------------------------------------


def _density_highprec(table, x: F) -> float:
    """Density value at rational x: exact per-rate polynomial sums, combined in
    precision wide enough to absorb their cancellation."""
    per_rate: dict[int, F] = {}
    for (i, j), c in sorted(table.nonzero().items()):
        per_rate[i] = per_rate.get(i, F(0)) + c * x**j
    bits = 64 + max(
        (v.numerator.bit_length() - v.denominator.bit_length() for v in per_rate.values() if v),
        default=0,
    )
    with mpmath.mp.workprec(bits):
        xm = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        total = mpmath.mpf(0)
        for i, v in sorted(per_rate.items()):
            total += mpmath.e ** (-i * xm) * (mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator))
        return float(total)


@pytest.mark.parametrize(
    "K,N,points", [(2, 2, 32), (2, 10, 32), (3, 10, 32), (4, 10, 32), (6, 6, 32), (4, 100, 8)]
)
def test_density_nonnegative_on_grid(K, N, points):
    t = cached_table(K, N)
    span = 4 * K * N
    for s in range(1, points + 1):
        x = F(span * s, points)
        assert _density_highprec(t, x) >= -1e-30


# --- table validation and serialization --------------------------------------


def test_scaled_table_rejected():
    t = cached_table(2, 4)
    doubled = {k: 2 * v for k, v in t.entries.items()}
    with pytest.raises(ConsistencyError):
        CoefficientTable(K=2, N=4, entries=doubled)


def test_malformed_index_set_rejected():
    t = cached_table(2, 4)
    extra = dict(t.entries)
    extra[(1, 99)] = F(0)
    with pytest.raises(ConsistencyError):
        CoefficientTable(K=2, N=4, entries=extra)


def test_resource_guard():
    with pytest.raises(ResourceLimitError):
        coefficient_table(2, MAX_KN // 2 + 1)
    with pytest.raises(ResourceLimitError):
        coefficient_table(4, 501)
    with pytest.raises(ResourceLimitError):
        table_from_json('{"K": 2, "N": 1001, "entries": []}')


def test_json_round_trip_is_exact():
    t = cached_table(3, 10)
    again = table_from_json(table_to_json(t))
    assert again.entries == t.entries
    assert (again.K, again.N) == (t.K, t.N)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int <-> str digit limit in force")
def test_json_load_keeps_the_digit_limit_for_small_shapes():
    # loading raises Python's int <-> str digit limit only as far as the declared shape needs
    doc = json.loads(table_to_json(cached_table(2, 2)))
    doc["entries"][0]["num"] = "1" * (DIGIT_LIMIT + 1)
    with pytest.raises(ValueError, match="integer string conversion"):
        table_from_json(json.dumps(doc))


def test_json_schema_shape():
    payload = json.loads(table_to_json(cached_table(2, 2)))
    assert payload["K"] == 2 and payload["N"] == 2
    entries = payload["entries"]
    assert [tuple((e["i"], e["j"])) for e in entries] == sorted(
        (e["i"], e["j"]) for e in entries
    )
    for e in entries:
        assert isinstance(e["num"], str) and isinstance(e["den"], str)
    by_key = {(e["i"], e["j"]): (e["num"], e["den"]) for e in entries}
    assert by_key[(1, 0)] == ("2", "1")
    assert by_key[(1, 1)] == ("-2", "1")
    assert by_key[(1, 2)] == ("1", "1")
    assert by_key[(2, 0)] == ("-2", "1")

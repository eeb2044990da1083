"""Exact-arithmetic core: polynomials, the exponential-polynomial oracle ring, conventions."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sledist import Polynomial

from oracles import ExpPolySum, reciprocal_factorial
from polyops import is_zero, mul, shift_powers, sub
from sturm import count_real_roots

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(Polynomial)


def test_reciprocal_factorial_negative_is_zero():
    # summation limits in the CDF series overshoot the factorial constraint;
    # the zero convention drops those terms
    assert reciprocal_factorial(-1) == 0
    assert reciprocal_factorial(-5) == 0
    assert reciprocal_factorial(4) == F(1, 24)


def test_polynomial_trims_leading_zeros():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert is_zero(Polynomial([0, 0]))
    assert Polynomial().degree == -1


def test_polynomial_arithmetic_hand_case():
    p = Polynomial([1, 1])   # 1 + x
    q = Polynomial([-1, 1])  # -1 + x
    assert mul(p, q) == Polynomial([-1, 0, 1])
    assert p + q == Polynomial([0, 2])
    assert sub(p, p) == Polynomial()


def test_polynomial_eval_is_exact():
    p = Polynomial([F(1, 3), F(-2, 7), 1])
    x = F(5, 11)
    assert p(x) == F(1, 3) - F(2, 7) * x + x * x


@given(small_polys, rationals)
@settings(max_examples=60, deadline=None)
def test_integer_horner_equals_fraction_sum(p, x):
    assert p(x) == sum((c * x**k for k, c in enumerate(p.coefficients)), F(0))


@given(st.lists(rationals, max_size=6), st.integers(-30, 30).filter(bool))
@settings(max_examples=60, deadline=None)
def test_fraction_and_integer_construction_agree(coeffs, m):
    p = Polynomial(coeffs)
    A, D = p.integer_form()
    assert D > 0 and math.gcd(D, *A) == 1 and (not A or A[-1])
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert p.coefficients == tuple(trimmed)
    # any multiple of the form, trailing zeros included, reduces to the same polynomial
    q = Polynomial.from_integers([a * m for a in A] + [0], D * m)
    assert q == p and hash(q) == hash(p) and q.coefficients == p.coefficients


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_integer_calculus_matches_fractions(p, q):
    c = p.coefficients
    expected_sum = [F(0)] * max(len(c), len(q.coefficients))
    for coeffs in (c, q.coefficients):
        for k, v in enumerate(coeffs):
            expected_sum[k] += v
    while expected_sum and expected_sum[-1] == 0:
        expected_sum.pop()
    assert (p + q).coefficients == tuple(expected_sum)
    assert p.derivative().coefficients == tuple(k * v for k, v in enumerate(c))[1:]
    antiderivative = (F(0),) + tuple(v / (k + 1) for k, v in enumerate(c)) if c else ()
    assert p.antiderivative().coefficients == antiderivative


def test_derivative_antiderivative_roundtrip():
    p = Polynomial([3, -1, F(5, 2), 7])
    assert p.antiderivative().derivative() == p


def test_monomial_and_shift_powers():
    assert shift_powers(Polynomial([2]), 3) == Polynomial([0, 0, 0, 2])
    assert shift_powers(Polynomial([1, 2]), 2) == Polynomial([0, 0, 1, 2])


@given(small_polys, small_polys, rationals)
@settings(max_examples=60, deadline=None)
def test_product_evaluates_pointwise(p, q, x):
    assert mul(p, q)(x) == p(x) * q(x)


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_addition_commutes(p, q):
    assert p + q == q + p


def test_exppolysum_drops_zero_polys_and_validates():
    f = ExpPolySum({1: Polynomial(), 2: Polynomial([1])})
    assert f.terms == {2: Polynomial([1])}
    with pytest.raises(ValueError):
        ExpPolySum({-1: Polynomial([1])})


def test_exppolysum_product_adds_decay_rates():
    f = ExpPolySum({1: Polynomial([1, 1])})
    g = ExpPolySum({2: Polynomial([3])})
    assert (f * g).terms == {3: Polynomial([3, 3])}


def test_count_real_roots():
    # (x-1)(x-2)(x-3)
    p = Polynomial([-6, 11, -6, 1])
    assert count_real_roots(p, 0, F(5, 2)) == 2
    assert count_real_roots(p, 0, 10) == 3
    assert count_real_roots(p, 4, 10) == 0
    # root exactly at the closed upper endpoint counts
    assert count_real_roots(p, 0, 1) == 1


def test_count_real_roots_positive_definite():
    assert count_real_roots(Polynomial([1, 0, 1]), -10, 10) == 0


def test_count_real_roots_repeated():
    # (x-1)^2 (x-2)^3: two distinct roots
    a = Polynomial([-1, 1])
    b = Polynomial([-2, 1])
    p = mul(mul(a, a), mul(mul(b, b), b))
    assert count_real_roots(p, 0, 10) == 2
    assert count_real_roots(p, 0, 1) == 1


def test_count_real_roots_root_at_lower_endpoint():
    # x^8 (x-1)^2 (x-2)^8 mirrors a density segment shape; the root at the
    # open lower endpoint must not poison the sign sequences
    x = Polynomial([0, 1])
    a = Polynomial([-1, 1])
    b = Polynomial([-2, 1])
    p = Polynomial([1])
    for _ in range(8):
        p = mul(mul(p, x), b)
    p = mul(mul(p, a), a)
    assert count_real_roots(p, 0, 3) == 2
    assert count_real_roots(p, 0, F(3, 2)) == 1
    assert count_real_roots(p, 1, 2) == 1
    assert count_real_roots(p, 2, 3) == 0
    # every root at or below lo excluded, constant quotient case
    mono = mul(mul(x, x), x)
    assert count_real_roots(mono, 0, 5) == 0

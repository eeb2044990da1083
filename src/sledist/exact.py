"""Exact rational scalars and dense univariate polynomials.

Everything in this module is exact: scalars are arbitrary-precision rationals
(``fractions.Fraction``) and polynomials are dense coefficient tuples over
those rationals.  No floating point enters at any stage; callers convert to
floats only at their own evaluation boundaries.

The magnitudes involved are extreme by design.  Constants scale like ``(K*N-1)!``
(around 10**868 for ``K=4, N=100``) and cancel down to order one, which is why
plain doubles are never used for the symbolic work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = [
    "Rational",
    "Polynomial",
]

# The rational scalar for all symbolic work.  fractions.Fraction already
# guarantees lowest terms, a positive denominator, exact field arithmetic and
# arbitrary-precision integers, so it is used directly rather than wrapped.
Rational = Fraction

RationalLike = Fraction | int


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational or int, got {type(value).__name__}")


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are indexed by power of ``x`` and stored trimmed: the leading
    coefficient is nonzero unless the polynomial is identically zero (empty
    tuple).  Instances are immutable and hashable; all arithmetic is exact.
    """

    __slots__ = ("_coeffs", "_integer_form")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [_as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)
        self._integer_form: tuple[tuple[int, ...], int] | None = None

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self._coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Formal antiderivative with zero constant term."""
        return Polynomial([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self._coeffs)])

    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """Integers ``A`` and ``D`` with coefficient k equal to ``A[k] / D``, D the lcm of the denominators.

        Computed on the first call and kept: exact evaluation, integrals and
        the float-model build all start from it.
        """
        if self._integer_form is None:
            D = math.lcm(*{c.denominator for c in self._coeffs})
            self._integer_form = (tuple(c.numerator * (D // c.denominator) for c in self._coeffs), D)
        return self._integer_form

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact evaluation at a rational point by Horner's rule on integers.

        With x = a/b and the coefficients c_k = A_k/D over one common
        denominator, p(x) = sum_k A_k a^k b^(d-k) / (D b^d): the sum is an
        integer, so the only gcd is the one that reduces the final Fraction.
        """
        x = _as_fraction(x)
        if not self._coeffs:
            return Fraction(0)
        A, D = self.integer_form()
        b = x.denominator
        return Fraction(horner(A, x.numerator, b), D * b ** (len(A) - 1))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Polynomial(0)"
        parts = [f"{c}*x^{k}" if k else f"{c}" for k, c in enumerate(self._coeffs) if c]
        return "Polynomial(" + " + ".join(parts) + ")"


def horner(A: list[int], a: int, b: int) -> int:
    """The integer sum_k A[k] a^k b^(d-k), d = len(A) - 1: b^d times the polynomial at a/b."""
    acc, b_power = 0, 1
    for c in reversed(A):
        acc = acc * a + c * b_power
        b_power *= b
    return acc

"""Exact rational scalars, dense univariate polynomials, and exponential-polynomial sums.

Everything in this module is exact: scalars are arbitrary-precision rationals
(``fractions.Fraction``), polynomials are dense coefficient tuples over those
rationals, and an :class:`ExpPolySum` is a finite sum ``sum_m exp(-m*x) * P_m(x)``
with polynomial ``P_m``.  No floating point enters at any stage; callers convert
to floats only at their own evaluation boundaries.

The magnitudes involved are extreme by design.  Constants scale like ``(K*N-1)!``
(around 10**868 for ``K=4, N=100``) and cancel down to order one, which is why
plain doubles are never used for the symbolic work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Rational",
    "Polynomial",
    "ExpPolySum",
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

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [_as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

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

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self._coeffs or not other._coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, ca in enumerate(self._coeffs):
                if ca == 0:
                    continue
                for j, cb in enumerate(other._coeffs):
                    out[i + j] += ca * cb
            return Polynomial(out)
        return self.scale(other)

    def __rmul__(self, other: RationalLike) -> "Polynomial":
        return self.scale(other)

    def scale(self, factor: RationalLike) -> "Polynomial":
        f = _as_fraction(factor)
        if f == 0:
            return Polynomial()
        return Polynomial([c * f for c in self._coeffs])

    def shift_powers(self, k: int) -> "Polynomial":
        """Multiply by ``x**k`` (raise every power by ``k``)."""
        if k < 0:
            raise ValueError("power shift must be nonnegative")
        if not self._coeffs:
            return Polynomial()
        return Polynomial([Fraction(0)] * k + list(self._coeffs))

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self._coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Formal antiderivative with zero constant term."""
        return Polynomial([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self._coeffs)])

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact evaluation at a rational point by Horner's rule on integers.

        With x = a/b and the coefficients c_k = A_k/D over one common
        denominator, p(x) = sum_k A_k a^k b^(d-k) / (D b^d): the sum is an
        integer, so the only gcd is the one that reduces the final Fraction.
        """
        x = _as_fraction(x)
        if not self._coeffs:
            return Fraction(0)
        a, b = x.numerator, x.denominator
        D = math.lcm(*(c.denominator for c in self._coeffs))
        acc, b_power = 0, 1
        for c in reversed(self._coeffs):
            acc = acc * a + c.numerator * (D // c.denominator) * b_power
            b_power *= b
        return Fraction(acc, D * (b_power // b))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Polynomial(0)"
        parts = [f"{c}*x^{k}" if k else f"{c}" for k, c in enumerate(self._coeffs) if c]
        return "Polynomial(" + " + ".join(parts) + ")"


class ExpPolySum:
    """Finite sum ``sum_m exp(-m*x) * P_m(x)`` with polynomial coefficients.

    ``terms`` maps the nonnegative integer decay rate ``m`` to the polynomial
    ``P_m``; identically-zero polynomials are never stored.  The set is closed
    under addition and multiplication (``exp(-a*x)P * exp(-b*x)Q =
    exp(-(a+b)*x) PQ``), which makes it the natural ring for the determinant
    expansions feeding the coefficient tables.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Polynomial] | None = None):
        clean: dict[int, Polynomial] = {}
        if terms:
            for m, p in terms.items():
                if m < 0:
                    raise ValueError(f"negative decay rate {m}")
                if not isinstance(p, Polynomial):
                    p = Polynomial(p)
                if not p.is_zero:
                    clean[int(m)] = p
        self._terms = clean

    @property
    def terms(self) -> dict[int, Polynomial]:
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExpPolySum):
            return self._terms == other._terms
        return NotImplemented

    def __add__(self, other: "ExpPolySum") -> "ExpPolySum":
        if not isinstance(other, ExpPolySum):
            return NotImplemented
        out = dict(self._terms)
        for m, p in other._terms.items():
            q = out.get(m)
            out[m] = p if q is None else q + p
        return ExpPolySum(out)

    def __neg__(self) -> "ExpPolySum":
        return ExpPolySum({m: -p for m, p in self._terms.items()})

    def __sub__(self, other: "ExpPolySum") -> "ExpPolySum":
        if not isinstance(other, ExpPolySum):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "ExpPolySum") -> "ExpPolySum":
        if not isinstance(other, ExpPolySum):
            return NotImplemented
        out: dict[int, Polynomial] = {}
        for m1, p1 in self._terms.items():
            for m2, p2 in other._terms.items():
                m = m1 + m2
                prod = p1 * p2
                q = out.get(m)
                out[m] = prod if q is None else q + prod
        return ExpPolySum(out)

    def scale(self, factor: RationalLike) -> "ExpPolySum":
        return ExpPolySum({m: p.scale(factor) for m, p in self._terms.items()})

    def __repr__(self) -> str:
        if not self._terms:
            return "ExpPolySum(0)"
        parts = [f"e^(-{m}x)*({p!r})" for m, p in sorted(self._terms.items())]
        return "ExpPolySum(" + " + ".join(parts) + ")"


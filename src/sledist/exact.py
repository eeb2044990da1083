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
    "reciprocal_factorial",
    "count_real_roots",
]

# The rational scalar for all symbolic work.  fractions.Fraction already
# guarantees lowest terms, a positive denominator, exact field arithmetic and
# arbitrary-precision integers, so it is used directly rather than wrapped.
Rational = Fraction

RationalLike = Fraction | int


def reciprocal_factorial(n: int) -> Fraction:
    """Exact ``1/n!``, extended by ``0`` for negative ``n``.

    The zero value implements the reciprocal-Gamma convention at nonpositive
    integers, so summations whose printed upper limit overshoots the factorial
    constraint drop the invalid terms automatically.
    """
    if n < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


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

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def monomial(cls, power: int, coeff: RationalLike = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls([0] * power + [coeff])

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

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

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
        """Exact evaluation by Horner's rule at a rational point."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

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

    @classmethod
    def zero(cls) -> "ExpPolySum":
        return cls()

    @classmethod
    def single(cls, m: int, poly: Polynomial) -> "ExpPolySum":
        return cls({m: poly})

    @property
    def terms(self) -> dict[int, Polynomial]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def poly(self, m: int) -> Polynomial:
        return self._terms.get(m, Polynomial())

    def decay_rates(self) -> list[int]:
        return sorted(self._terms)

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

    def integral_0_inf(self) -> Fraction:
        """Exact ``integral_0^inf`` of the sum.

        Uses ``integral_0^inf x^k exp(-m x) dx = k! / m^(k+1)``.  A nonzero
        ``m = 0`` polynomial makes the integral diverge and raises.
        """
        if 0 in self._terms:
            raise ValueError("nonintegrable: nonzero polynomial with no exponential decay")
        total = Fraction(0)
        for m, p in self._terms.items():
            for k, c in enumerate(p):
                if c:
                    total += c * math.factorial(k) / Fraction(m) ** (k + 1)
        return total

    def eval_at(self, x: float) -> float:
        """Floating-point evaluation (diagnostics only; not the exact path)."""
        return float(
            sum(math.exp(-m * x) * float(p(Fraction(x))) for m, p in self._terms.items())
        )

    def __repr__(self) -> str:
        if not self._terms:
            return "ExpPolySum(0)"
        parts = [f"e^(-{m}x)*({p!r})" for m, p in sorted(self._terms.items())]
        return "ExpPolySum(" + " + ".join(parts) + ")"


def _poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    rem = list(a.coefficients)
    bl = b.coefficients[-1]
    bd = b.degree
    while len(rem) - 1 >= bd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < bd:
            break
        shift = len(rem) - 1 - bd
        factor = rem[-1] / bl
        quot[shift] = factor
        for i, c in enumerate(b.coefficients):
            rem[shift + i] -= factor * c
        rem.pop()
    return Polynomial(quot), Polynomial(rem)


def _sign_changes(values: list[Fraction]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Polynomial, lo: RationalLike, hi: RationalLike) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval ``(lo, hi]``.

    Sturm-sequence sign-change count, fully exact.  Repeated roots count once;
    a root exactly at ``lo`` is excluded, one at ``hi`` is included.  Intended
    for certifying sign patterns of density segments; cost grows quickly with
    degree.
    """
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    # multiple roots exactly at an endpoint corrupt the sign sequences, so
    # deflate both endpoints and count the open interval; lo is excluded by
    # the interval convention, a deflated hi is added back at the end
    root_at_hi = 1 if p(hi) == 0 else 0
    for point in (lo, hi):
        linear = Polynomial([-point, Fraction(1)])
        while p(point) == 0:
            p, _ = _poly_divmod(p, linear)
    if p.degree == 0:
        return root_at_hi
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if rem.is_zero:
            break
        chain.append(-rem)
    if chain[-1].is_zero:
        chain.pop()
    at_lo = _sign_changes([q(lo) for q in chain])
    at_hi = _sign_changes([q(hi) for q in chain])
    return at_lo - at_hi + root_at_hi

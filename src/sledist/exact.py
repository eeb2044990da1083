"""Exact rational scalars and dense univariate polynomials.

Everything in this module is exact: scalars are arbitrary-precision rationals
(``fractions.Fraction``) and polynomials are dense, with rational
coefficients stored as integers over one common denominator.  No floating
point enters at any stage; callers convert to floats only at their own
evaluation boundaries.

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


class Frozen:
    """Refuses attribute assignment and deletion, as a frozen dataclass does.

    A subclass declares its fields in ``__slots__`` and sets them in
    ``__init__`` through ``object.__setattr__``.  Plain classes keep
    ``dataclasses``, and the ``inspect`` it imports, off the import path of
    every cold request.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # pickle and copy restore the slots here, from object.__getstate__'s (None, slots)
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational or int, got {type(value).__name__}")


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as its canonical integer form: coefficient k is ``A[k] / D`` with
    D > 0, gcd(D, *A) = 1 and A trimmed, so that its last entry is nonzero
    (the zero polynomial has A empty and D = 1).  The form is unique, so
    equality and hashing compare it, and all arithmetic runs on the integers;
    the ``Fraction`` coefficients are built on first access.  Instances are
    immutable and hashable.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        # over the lcm of reduced denominators, the numerators and it share no factor
        coeffs = [_as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        D = math.lcm(*(c.denominator for c in coeffs))
        self._num = tuple(c.numerator * (D // c.denominator) for c in coeffs)
        self._den = D
        self._coeffs = tuple(coeffs)

    @classmethod
    def from_integers(cls, A: list[int], D: int) -> "Polynomial":
        """The polynomial sum_k A[k] x^k / D for integers A and D != 0: one gcd pass."""
        n = len(A)
        while n and not A[n - 1]:
            n -= 1
        g = math.gcd(D, *A[:n])
        if D < 0:
            g = -g
        return cls._of_form(tuple(a // g for a in A[:n]), D // g)

    @classmethod
    def _of_form(cls, num: tuple[int, ...], den: int) -> "Polynomial":
        """The polynomial of a canonical form, taken as it is."""
        poly = cls.__new__(cls)
        poly._num, poly._den, poly._coeffs = num, den, None
        return poly

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(a, self._den) for a in self._num)
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        # A/D + B/E over lcm(D, E) = D * (E/g)
        g = math.gcd(self._den, other._den)
        sa, sb = other._den // g, self._den // g
        a = [c * sa for c in self._num]
        b = [c * sb for c in other._num]
        if len(a) < len(b):
            a, b = b, a
        for k, c in enumerate(b):
            a[k] += c
        return Polynomial.from_integers(a, self._den * sa)

    def derivative(self) -> "Polynomial":
        return Polynomial.from_integers([k * a for k, a in enumerate(self._num)][1:], self._den)

    def antiderivative(self) -> "Polynomial":
        """Formal antiderivative with zero constant term, in canonical form without a gcd pass.

        With B/L the quotients A_k/(k+1) over their least common denominator
        (:func:`quotients`), B and D*L share no prime: a prime at its largest
        power in L divides no B_k whose reduced denominator carries that
        power, and a prime of D alone misses the B_k of an A_k that it misses.
        """
        if not self._num:
            return self
        B, L = quotients(self._num, 1)
        return Polynomial._of_form((0, *B), self._den * L)

    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """The canonical integers ``A`` and ``D``: coefficient k is ``A[k] / D``.

        Exact evaluation, integrals and the float-model build all start from it.
        """
        return self._num, self._den

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact evaluation at a rational point by Horner's rule on integers.

        With x = a/b and the coefficients c_k = A_k/D over one common
        denominator, p(x) = sum_k A_k a^k b^(d-k) / (D b^d): the sum is an
        integer, so the only gcd is the one that reduces the final Fraction.
        """
        x = _as_fraction(x)
        A = self._num
        if not A:
            return Fraction(0)
        b = x.denominator
        return Fraction(horner(A, x.numerator, b), self._den * b ** (len(A) - 1))

    def __repr__(self) -> str:
        if not self._num:
            return "Polynomial(0)"
        parts = [f"{c}*x^{k}" if k else f"{c}" for k, c in enumerate(self.coefficients) if c]
        return "Polynomial(" + " + ".join(parts) + ")"


def quotients(A: tuple[int, ...], first: int) -> tuple[list[int], int]:
    """Integers B and L with B[k] / L = A[k] / (k + first), L the least such denominator.

    L is the lcm of the reduced denominators (k + first) / gcd(A[k], k + first),
    which is far below lcm(first, ..., d + first) when the A[k] carry their
    own divisors, as the coefficients of a derivative do.
    """
    g = [math.gcd(a, k + first) for k, a in enumerate(A)]
    s = [(k + first) // gk for k, gk in enumerate(g)]
    L = math.lcm(*s)
    return [(a // gk) * (L // sk) for a, gk, sk in zip(A, g, s)], L


def horner(A: list[int], a: int, b: int) -> int:
    """The integer sum_k A[k] a^k b^(d-k), d = len(A) - 1: b^d times the polynomial at a/b."""
    acc, b_power = 0, 1
    for c in reversed(A):
        acc = acc * a + c * b_power
        b_power *= b
    return acc

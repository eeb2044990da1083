"""Polynomial arithmetic that only the tests use.

sledist's ``Polynomial`` keeps what the pipeline runs: sums, the derivative,
the antiderivative and exact evaluation.  The oracles, the Sturm root count
and the hand cases also multiply, negate, subtract, scale and shift powers,
with the functions here.
"""

from __future__ import annotations

from fractions import Fraction

from sledist.exact import Polynomial, RationalLike, _as_fraction


def is_zero(p: Polynomial) -> bool:
    return not p.coefficients


def scale(p: Polynomial, factor: RationalLike) -> Polynomial:
    f = _as_fraction(factor)
    if f == 0:
        return Polynomial()
    return Polynomial([c * f for c in p.coefficients])


def neg(p: Polynomial) -> Polynomial:
    return Polynomial([-c for c in p.coefficients])


def sub(p: Polynomial, q: Polynomial) -> Polynomial:
    return p + neg(q)


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    # on the integer forms: A/D * B/E = (A * B)/(D * E)
    (a, d), (b, e) = p.integer_form(), q.integer_form()
    if not a or not b:
        return Polynomial()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return Polynomial.from_integers(out, d * e)


def shift_powers(p: Polynomial, k: int) -> Polynomial:
    """Multiply by ``x**k`` (raise every power by ``k``)."""
    if k < 0:
        raise ValueError("power shift must be nonnegative")
    if not p.coefficients:
        return Polynomial()
    return Polynomial([Fraction(0)] * k + list(p.coefficients))

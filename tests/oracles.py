"""The paper's closed-form coefficient tables for K = 2 and K = 3: test oracles.

sledist builds every table with the Hankel determinant engine; these printed
formulas are an independent derivation that the tests compare it against.
"""

import math
from fractions import Fraction
from math import factorial as _fact

from sledist.coefficients import CoefficientTable, _full_rectangle, index_upper


def reciprocal_factorial(n: int) -> Fraction:
    """Exact ``1/n!``, extended by ``0`` for negative ``n``.

    The zero value implements the reciprocal-Gamma convention at nonpositive
    integers, so summations whose printed upper limit overshoots the factorial
    constraint drop the invalid terms automatically.
    """
    if n < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def closed_form_k2(N: int) -> CoefficientTable:
    """Closed-form coefficient table for K = 2."""
    if N < 2:
        raise ValueError(f"K=2 closed form needs N >= 2, got {N}")
    t: dict[tuple[int, int], Fraction] = {}
    fN1 = _fact(N - 1)
    fN2 = _fact(N - 2)
    for j in range(N - 2, N + 1):
        sign = -1 if (j - N) % 2 else 1
        c = (
            Fraction(2 * sign * _fact(2 * N - j - 2), fN2 * fN1)
            * reciprocal_factorial(-N + j + 2)
            * reciprocal_factorial(N - j)
        )
        t[(1, j)] = c
    for j in range(N - 2, 2 * N - 3):
        t[(2, j)] = (
            Fraction(-(2 * N - j - 2) * (2 * N - j - 3), fN1)
            * reciprocal_factorial(-N + j + 2)
        )
    return _full_rectangle(2, N, t)


def _falling2(a: int) -> int:
    """a * (a - 1): the two-step falling product that the K=3 factorial ratios reduce to."""
    return a * (a - 1)


def closed_form_k3(N: int) -> CoefficientTable:
    """Closed-form coefficient table for K = 3.

    The printed formulas contain factorial ratios like (2N-j+k-3)!/(2N-j+k-5)!
    whose separate factorials can have negative arguments at the edges of the
    summation ranges even though the ratio itself is a polynomial; each ratio
    is therefore implemented as the equivalent falling product, which is exact
    everywhere the summation ranges reach.
    """
    if N < 3:
        raise ValueError(f"K=3 closed form needs N >= 3, got {N}")
    fN1, fN2, fN3 = _fact(N - 1), _fact(N - 2), _fact(N - 3)
    t: dict[tuple[int, int], Fraction] = {}

    for j in range(N - 3, N + 2):
        s = Fraction(0)
        sign = -1 if (j - N + 1) % 2 else 1
        for k in range(max(0, j - N + 1), min(j - N + 3, 2) + 1):
            s += (
                Fraction(
                    2 * sign * _fact(N - k) * _fact(2 * N - j + k - 4) * (-N + j - 2 * k + 4),
                    _fact(2 - k) * _fact(k) * fN3 * fN2 * fN1,
                )
                * reciprocal_factorial(N - j + k - 1)
                * reciprocal_factorial(-N + j - k + 3)
            )
        if s:
            t[(1, j)] = s

    for j in range(N - 3, index_upper(3, 2, N) + 1):
        s = Fraction(0)
        for k in range(max(0, j - 2 * N + 4), min(j - N + 3, 2) + 1):
            sign = -1 if k % 2 else 1
            pref = (
                Fraction(sign)
                * reciprocal_factorial(2 - k)
                * reciprocal_factorial(k)
                * reciprocal_factorial(-N + j - k + 3)
            )
            a = 2 * N - j + k
            p1 = Fraction(2 * _fact(N - k) * _falling2(a - 3), fN3 * fN1)
            p2 = Fraction(_fact(N - k - 1) * _falling2(a - 2), fN3 * fN2)
            p3 = Fraction(_fact(N - k + 1) * _falling2(a - 4), fN2 * fN1)
            s += pref * (p1 - p2 - p3)
        if s:
            t[(2, j)] = s

    for j in range(N - 3, index_upper(3, 3, N) + 1):
        s = Fraction(0)
        for k in range(max(0, j - 2 * N + 5), min(j - N + 3, N - 1) + 1):
            pref = (
                Fraction(1, 2 * fN2)
                * reciprocal_factorial(k)
                * reciprocal_factorial(-N + j - k + 3)
            )
            a = 2 * N - j + k
            p1 = Fraction((N - k + 1) * (N - k) * _falling2(a - 4))
            p2 = Fraction((N - k) * (N - k - 1) * _falling2(a - 3) * (N - 2), N - 1)
            s += pref * (p1 - p2)
        if s:
            t[(3, j)] = s

    return _full_rectangle(3, N, t)

"""Exact Sturm root counting: the certificate behind the PDF sign tests."""

from __future__ import annotations

from fractions import Fraction

from sledist import Polynomial

from polyops import is_zero, neg


def _poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if is_zero(b):
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


def count_real_roots(p: Polynomial, lo: Fraction | int, hi: Fraction | int) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval ``(lo, hi]``.

    Sturm-sequence sign-change count, fully exact.  Repeated roots count once;
    a root exactly at ``lo`` is excluded, one at ``hi`` is included.  Intended
    for certifying sign patterns of density segments; cost grows quickly with
    degree.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    if is_zero(p):
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
    while not is_zero(chain[-1]) and chain[-1].degree > 0:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if is_zero(rem):
            break
        chain.append(neg(rem))
    if is_zero(chain[-1]):
        chain.pop()
    at_lo = _sign_changes([q(lo) for q in chain])
    at_hi = _sign_changes([q(hi) for q in chain])
    return at_lo - at_hi + root_at_hi

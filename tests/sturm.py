"""Exact Sturm root counting: the certificate behind the PDF sign tests.

The chain runs on primitive integer polynomials.  Each pseudo-remainder
multiplies by the positive |lc|^(delta+1) in place of a rational division,
and each remainder is divided by its positive content, so every member is a
positive multiple of the rational Sturm chain's and the sign counts are the
same, without the rational chain's growth of numerators and denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sledist import Polynomial
from sledist.exact import horner

from polyops import is_zero


def _primitive(A: list[int]) -> list[int]:
    """A trimmed and divided by its positive content."""
    while A and A[-1] == 0:
        A.pop()
    g = math.gcd(*A)
    return [a // g for a in A] if g > 1 else A


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^(delta+1) * (a mod b) up to a positive factor, delta = deg a - deg b."""
    r = list(a)
    lc, db = b[-1], len(b) - 1
    m, s = abs(lc), 1 if lc > 0 else -1
    while len(r) - 1 >= db:
        top, shift = s * r[-1], len(r) - 1 - db
        # the leading term cancels: m*r_top - s*r_top*lc = 0
        r = [m * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _deflate(A: list[int], a: int, b: int) -> list[int]:
    """A / (b*x - a) for a root a/b in lowest terms of A: integers, by Gauss's lemma."""
    q = [0] * (len(A) - 1)
    carry = A[-1]
    for k in range(len(A) - 1, 0, -1):
        q[k - 1], rest = divmod(carry, b)
        if rest:
            raise ArithmeticError("inexact deflation")
        carry = A[k - 1] + a * q[k - 1]
    if carry:
        raise ArithmeticError("inexact deflation")
    return q


def _sign_changes(values: list[int]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _signs_at(chain: list[list[int]], x: Fraction) -> int:
    # horner gives b^d * q(a/b), b > 0, so the signs are those of q(x)
    return _sign_changes([horner(q, x.numerator, x.denominator) for q in chain])


def count_real_roots(p: Polynomial, lo: Fraction | int, hi: Fraction | int) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval ``(lo, hi]``.

    Sturm-sequence sign-change count, fully exact.  Repeated roots count once;
    a root exactly at ``lo`` is excluded, one at ``hi`` is included.  Intended
    for certifying sign patterns of density segments.
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
    A = _primitive(list(p.integer_form()[0]))
    for point in (lo, hi):
        while horner(A, point.numerator, point.denominator) == 0:
            A = _deflate(A, point.numerator, point.denominator)
    if len(A) == 1:
        return root_at_hi
    chain = [A, _primitive([k * a for k, a in enumerate(A)][1:])]
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return _signs_at(chain, lo) - _signs_at(chain, hi) + root_at_hi

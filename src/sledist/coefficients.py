"""Coefficient tables for the largest-eigenvalue density of a complex Wishart matrix.

The density of the largest eigenvalue of ``R = Z Z^H`` (``Z`` a ``K x N``
standard complex Gaussian matrix, ``K <= N``) admits the expansion

    f(x) = sum_{i=1}^{K} exp(-i*x) * sum_j c_{i,j} x^j,

with ``j`` running over ``N-K .. (N+K)*i - 2*i**2`` for each ``i``.  This
module produces the exact rational table ``c_{i,j}`` for every K >= 2 with
one determinant engine, which expands the squared-Vandermonde integral over
``[0, x]^(K-1)`` into a Hankel determinant of the weighted incomplete moments
L_a(x).

Every table validates itself: nonzero coefficients must land inside the index
bounds above, and the table must satisfy the exact normalization
``sum c_{i,j} * j! / i^(j+1) = 1``.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .exact import ExpPolySum, Polynomial, Rational

__all__ = [
    "ConsistencyError",
    "ResourceLimitError",
    "CoefficientTable",
    "HankelSystem",
    "l_poly",
    "d_constant",
    "hankel_system",
    "coefficient_table",
    "table_to_json",
    "table_from_json",
    "MAX_KN",
]

# Exact tables beyond this K*N product blow past interactive time and memory
# budgets (degrees and factorial magnitudes grow superlinearly).
MAX_KN = 2000


class ConsistencyError(Exception):
    """An internally computed quantity violated a structural invariant."""


class ResourceLimitError(Exception):
    """Requested problem size exceeds the practical exact-arithmetic budget."""


def index_upper(K: int, i: int, N: int) -> int:
    """Largest power of x carried by the exp(-i*x) block."""
    return (N + K) * i - 2 * i * i


def _check_size(K: int, N: int) -> None:
    if K * N > MAX_KN:
        raise ResourceLimitError(
            f"K*N = {K * N} exceeds the supported limit of {MAX_KN}; "
            "exact coefficient tables of this size are not practical"
        )


def _check_shape(K: int, N: int) -> None:
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    if N < K:
        raise ValueError(f"N must be at least K, got K={K}, N={N}")


@dataclass(frozen=True)
class CoefficientTable:
    """Exact density coefficients c_{i,j} for one (K, N).

    ``entries`` holds the complete in-range rectangle: every pair (i, j) with
    1 <= i <= K and N-K <= j <= (N+K)i - 2i^2 is present, zeros included, so
    two tables are equal iff they describe the same density.  Construction
    validates the index bounds and the exact unit-mass normalization and
    raises :class:`ConsistencyError` on failure.
    """

    K: int
    N: int
    entries: dict[tuple[int, int], Fraction] = field(compare=True)

    def __post_init__(self):
        _check_shape(self.K, self.N)
        expected = {
            (i, j)
            for i in range(1, self.K + 1)
            for j in range(self.N - self.K, index_upper(self.K, i, self.N) + 1)
        }
        got = set(self.entries)
        if got != expected:
            stray = sorted(got - expected)[:4]
            missing = sorted(expected - got)[:4]
            raise ConsistencyError(
                f"coefficient index set malformed for K={self.K}, N={self.N}: "
                f"unexpected {stray}, missing {missing}"
            )
        mass = self.normalization()
        if mass != 1:
            raise ConsistencyError(
                f"coefficient table for K={self.K}, N={self.N} fails unit-mass "
                f"normalization: sum c_ij * j!/i^(j+1) = {mass}"
            )

    def normalization(self) -> Fraction:
        """Exact total mass: sum over entries of c * j! / i^(j+1)."""
        top = max(j for _, j in self.entries)
        fact = list(accumulate(range(1, top + 1), operator.mul, initial=1))  # j! at j
        total = Fraction(0)
        for (i, j), c in self.entries.items():
            if c:
                total += c * fact[j] / Fraction(i) ** (j + 1)
        return total

    def nonzero(self) -> dict[tuple[int, int], Fraction]:
        return {k: v for k, v in self.entries.items() if v}

    # dict fields are unhashable, so hash the content, as __eq__ compares it
    def __hash__(self) -> int:
        return hash((self.K, self.N, tuple(sorted(self.nonzero().items()))))


@dataclass(frozen=True)
class HankelSystem:
    """The (K-1) x (K-1) moment matrix whose determinant yields the density.

    Entry (r, s) is L_{N-K+r+s}(x); the matrix is constant along
    anti-diagonals because the entry depends on r+s only.
    """

    K: int
    N: int
    entries: tuple[tuple[ExpPolySum, ...], ...]

    def __post_init__(self):
        _check_shape(self.K, self.N)
        n = self.K - 1
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ConsistencyError("moment matrix has wrong shape")

    def determinant(self) -> ExpPolySum:
        return _det_bareiss(self.entries)


@lru_cache(maxsize=None)
def l_poly(a: int) -> ExpPolySum:
    """The weighted incomplete moment L_a(x) = int_0^x t^a (x-t)^2 e^(-t) dt.

    Closed form (repeated integration by parts), all coefficients integers:
        [(a+2)! - 2(a+1)! x + a! x^2]
        - e^(-x) * sum_{k=0}^{a} (a!/k!) (a-k+1) (a-k+2) x^k
    """
    if a < 0:
        raise ValueError(f"moment order must be nonnegative, got {a}")
    steady = Polynomial([math.factorial(a + 2), -2 * math.factorial(a + 1), math.factorial(a)])
    falling = list(accumulate(range(a, 0, -1), operator.mul, initial=1))  # a!/(a-t)! at t
    decaying = Polynomial([-falling[a - k] * (a - k + 1) * (a - k + 2) for k in range(a + 1)])
    return ExpPolySum({0: steady, 1: decaying})


def d_constant(K: int, N: int) -> Rational:
    """Normalizing constant 1 / prod_{i=1}^{K} (N-i)! (K-i)!."""
    _check_shape(K, N)
    denom = 1
    for i in range(1, K + 1):
        denom *= math.factorial(N - i) * math.factorial(K - i)
    return Fraction(1, denom)


def _full_rectangle(K: int, N: int, nonzero: dict[tuple[int, int], Fraction]) -> CoefficientTable:
    """Zeros at every in-range (i, j) but those ``nonzero`` sets; a stray key fails validation."""
    zeros = {
        (i, j): Fraction(0)
        for i in range(1, K + 1)
        for j in range(N - K, index_upper(K, i, N) + 1)
    }
    return CoefficientTable(K=K, N=N, entries=zeros | nonzero)


def _pack(coeffs: list[int], width: int) -> int:
    """Kronecker substitution: the polynomial's value at x = 2^(8*width).

    Every |c| must be below 2^(8*width).  Positive and negative parts are laid
    out as two byte strings, so packing takes linear time.
    """
    pos = b"".join(max(c, 0).to_bytes(width, "little") for c in coeffs)
    neg = b"".join(max(-c, 0).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, width: int) -> list[int]:
    """Inverse of :func:`_pack` for coefficients below 2^(8*width - 1) in absolute value.

    Adding 2^(8*width - 1) to every digit makes all digits nonnegative, so a
    single ``to_bytes`` splits the value in linear time.  Digits past the
    degree come out as zeros.
    """
    digits = value.bit_length() // (8 * width) + 2
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * digits, "little")
    raw = (value + offset).to_bytes(width * digits, "little")
    return [int.from_bytes(raw[k : k + width], "little") - half for k in range(0, len(raw), width)]


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    While the matrix allows it, elimination takes two steps at a time
    (Bareiss's two-step method): with ``prev`` the leading minor of order k,
    Sylvester's identity makes each entry after the step, a minor of order
    k+3, equal to a 3x3 determinant of current entries divided by ``prev^2``,
    exactly.  The first two-step divides by 1, so for a 3x3 matrix no
    division happens at all.  A singular 2x2 pivot block, or a last odd step,
    falls back to one step, which divides by ``prev``; a zero pivot is
    replaced by a lower row.
    """
    n = len(m)
    sign, prev, k = 1, 1, 0
    while k < n - 1:
        if k + 2 < n:
            a, b, c, d = m[k][k], m[k][k + 1], m[k + 1][k], m[k + 1][k + 1]
            block = a * d - b * c
            if block:
                row_k, row_k1, cols, divisor = m[k], m[k + 1], range(k + 2, n), prev * prev
                # cofactors along the 3x3 determinants' last row; they depend on the column only
                u = [b * row_k1[j] - row_k[j] * d for j in cols]
                v = [a * row_k1[j] - row_k[j] * c for j in cols]
                for row in m[k + 2 :]:
                    left, right = row[k], row[k + 1]
                    for j, uj, vj in zip(cols, u, v):
                        row[j] = (left * uj - right * vj + row[j] * block) // divisor
                prev = block // prev
                k += 2
                continue
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, pivot_row = m[k][k], m[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
        k += 1
    return sign * m[-1][-1]


def _det_bareiss(rows: tuple[tuple[ExpPolySum, ...], ...]) -> ExpPolySum:
    """Determinant over the ExpPolySum ring, for entries with integer coefficients.

    With y = e^(-x) each entry is a polynomial in x and y over Z, and the
    determinant is one of y-degree at most d, the sum over rows of the largest
    decay rate.  Each coefficient is at most the product of the rows' sums of
    entry coefficient 1-norms (a permanent bound), which fixes a digit width
    w.  For y = 0..d the entries are evaluated at x = 2^(8w) (Kronecker
    substitution) and the integer determinant is taken by Bareiss
    elimination, which is elimination over Z[x] with one big-integer product
    per polynomial product.  Lagrange interpolation in y runs on those
    integers, and unpacking the digits gives the coefficient of each e^(-m*x).
    """
    if any(c.denominator != 1 for row in rows for e in row for p in e.terms.values() for c in p):
        raise ConsistencyError("determinant engine needs integer coefficients")
    ints = [[{m: [c.numerator for c in p] for m, p in e.terms.items()} for e in row] for row in rows]
    bound = math.prod(sum(sum(abs(c) for p in e.values() for c in p) for e in row) for row in ints)
    if not bound:
        return ExpPolySum()
    width = (bound.bit_length() + 9) // 8
    packed = [[{m: _pack(p, width) for m, p in e.items()} for e in row] for row in ints]
    d = sum(max(max(e, default=0) for e in row) for row in ints)
    values = [
        _bareiss([[sum(v * y**m for m, v in e.items()) for e in row] for row in packed])
        for y in range(d + 1)
    ]
    # d! times the Lagrange basis polynomial of node t is scale_t * prod_{s != t} (y - s)
    combined = [0] * (d + 1)
    for t, value in enumerate(values):
        basis = [1]
        for s in range(d + 1):
            if s != t:
                basis = [lo - s * hi for lo, hi in zip([0] + basis, basis + [0])]
        scale = (-1) ** (d - t) * math.comb(d, t)
        for m, c in enumerate(basis):
            combined[m] += c * scale * value
    terms = {}
    for m, total in enumerate(combined):
        coeff_at_x, rest = divmod(total, math.factorial(d))
        if rest:
            raise ConsistencyError("determinant values are not a polynomial in e^(-x)")
        terms[m] = Polynomial(_unpack(coeff_at_x, width))
    return ExpPolySum(terms)


def hankel_system(K: int, N: int) -> HankelSystem:
    """Assemble the moment matrix with entries L_{N-K+r+s}(x)."""
    _check_shape(K, N)
    n = K - 1
    rows = tuple(tuple(l_poly(N - K + r + s) for s in range(n)) for r in range(n))
    return HankelSystem(K=K, N=N, entries=rows)


def coefficient_table(K: int, N: int) -> CoefficientTable:
    """Coefficient table for any K >= 2 via the determinant of the moment matrix.

    The largest-eigenvalue density equals
        D(K,N) * x^(N-K) * e^(-x) * det[L_{N-K+r+s}(x)]_{r,s=0..K-2};
    expanding the determinant (integer coefficients) in the ExpPolySum ring
    and collecting the coefficient of e^(-i*x) x^j gives c_{i,j} directly.
    """
    _check_shape(K, N)
    _check_size(K, N)
    det = hankel_system(K, N).determinant()
    denom = d_constant(K, N).denominator
    nonzero = {
        (m + 1, k + N - K): Fraction(c.numerator, denom)
        for m, poly in det.terms.items()
        for k, c in enumerate(poly)
        if c
    }
    return _full_rectangle(K, N, nonzero)


@contextmanager
def _int_str_digits(digits: int):
    """Raise Python's int <-> str digit limit to ``digits`` (0: none) for the block."""
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not previous:  # no limit in force, as on Pythons 3.10.0-3.10.6
        yield
        return
    sys.set_int_max_str_digits(digits and max(digits, previous))
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@_int_str_digits(0)
def table_to_json(table: CoefficientTable, indent: int | None = 2) -> str:
    """Serialize a table; big integers become decimal strings so any JSON parser survives."""
    payload = {
        "K": table.K,
        "N": table.N,
        "entries": [
            {"i": i, "j": j, "num": str(c.numerator), "den": str(c.denominator)}
            for (i, j), c in sorted(table.entries.items())
        ],
    }
    return json.dumps(payload, indent=indent)


def table_from_json(text: str) -> CoefficientTable:
    """Inverse of :func:`table_to_json`; revalidates all invariants on load."""
    payload = json.loads(text)
    K, N = int(payload["K"]), int(payload["N"])
    _check_shape(K, N)
    _check_size(K, N)
    # digits for (K*N)^(K*N), more than D(K,N)'s denominator, which every entry's divides
    with _int_str_digits(K * N * len(str(K * N))):
        entries = {
            (int(e["i"]), int(e["j"])): Fraction(int(e["num"]), int(e["den"]))
            for e in payload["entries"]
        }
    return CoefficientTable(K=K, N=N, entries=entries)

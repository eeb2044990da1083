"""Coefficient tables for the largest-eigenvalue density of a complex Wishart matrix.

The density of the largest eigenvalue of ``R = Z Z^H`` (``Z`` a ``K x N``
standard complex Gaussian matrix, ``K <= N``) admits the expansion

    f(x) = sum_{i=1}^{K} exp(-i*x) * sum_j c_{i,j} x^j,

with ``j`` running over ``N-K .. (N+K)*i - 2*i**2`` for each ``i``.  This
module produces the exact rational table ``c_{i,j}`` for every K >= 2 with
one determinant engine, which expands the squared-Vandermonde integral over
``[0, x]^(K-1)`` into a Hankel determinant of the weighted incomplete moments
L_a(x).  The engine runs on plain integers from the closed form of L_a to the
determinant; every c_{i,j} is one of its integers over the common
denominator 1/D(K,N), and becomes a ``Fraction`` only in the table.

Every table validates itself: nonzero coefficients must land inside the index
bounds above, and the table must satisfy the exact normalization
``sum c_{i,j} * j! / i^(j+1) = 1``.
"""

from __future__ import annotations

import math
import operator
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate

from .exact import Frozen, Rational

__all__ = [
    "ConsistencyError",
    "ResourceLimitError",
    "CoefficientTable",
    "d_constant",
    "coefficient_table",
    "table_to_json",
    "table_from_json",
    "MAX_KN",
]

# Exact tables beyond this K*N product blow past interactive time and memory
# budgets (degrees and factorial magnitudes grow superlinearly).
MAX_KN = 2000

# e^(-m*x) x^k has coefficient e[m][k]: integer coefficient lists indexed by decay rate
_IntExpPoly = list[list[int]]


class ConsistencyError(Exception):
    """An internally computed quantity violated a structural invariant."""


class ResourceLimitError(Exception):
    """Requested problem size exceeds the practical exact-arithmetic budget."""


# the sampler's error lives with the others, so the CLI can catch it without importing numpy
class EigensolverError(Exception):
    """An eigenvalue computation failed to converge; carries diagnostics."""


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


class CoefficientTable(Frozen):
    """Exact density coefficients c_{i,j} for one (K, N).

    ``entries`` holds the complete in-range rectangle: every pair (i, j) with
    1 <= i <= K and N-K <= j <= (N+K)i - 2i^2 is present, zeros included, so
    two tables are equal iff they describe the same density.  Construction
    validates the index bounds and the exact unit-mass normalization and
    raises :class:`ConsistencyError` on failure.
    """

    __slots__ = ("K", "N", "entries")

    def __init__(self, K: int, N: int, entries: dict[tuple[int, int], Fraction]):
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "entries", entries)
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

    def __repr__(self) -> str:
        return f"CoefficientTable(K={self.K!r}, N={self.N!r}, entries={self.entries!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.K, self.N, self.entries) == (other.K, other.N, other.entries)
        return NotImplemented

    def normalization(self) -> Fraction:
        """Exact total mass: sum over entries of c * j! / i^(j+1)."""
        return moment_sum(self.entries, 1)

    def nonzero(self) -> dict[tuple[int, int], Fraction]:
        return {k: v for k, v in self.entries.items() if v}

    # dict fields are unhashable, so hash the content, as __eq__ compares it
    def __hash__(self) -> int:
        return hash((self.K, self.N, tuple(sorted(self.nonzero().items()))))


def moment_sum(entries: dict[tuple[int, int], Fraction], z: int) -> Fraction:
    """Exact sum over entries of c_ij * (z+j-1)! / i^(z+j), the density's moment of order z-1.

    Each row i is summed on integers: with D a common denominator of its
    entries n_ij/d_ij and J its largest j, the row is
        sum_j n_ij (D/d_ij) (z+j-1)! i^(J-j) / (D i^(z+J)),
    and the numerator runs by Horner's rule in i, so a row costs one Fraction.
    D starts at 1; an entry whose denominator does not divide it multiplies
    D, and the partial sum, by d_ij / gcd(D, d_ij).  One divmod per entry
    decides that, and is cheap once D has all of the row's factors.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    for (i, j), c in entries.items():
        if c:
            rows.setdefault(i, {})[j] = c
    top = max((j for row in rows.values() for j in row), default=0)
    fact = list(accumulate(range(z, z + top), operator.mul, initial=math.factorial(z - 1)))
    total = Fraction(0)
    for i, row in rows.items():
        D, acc, J = 1, 0, max(row)
        for j in range(min(row), J + 1):
            acc *= i
            c = row.get(j)
            if c is not None:
                d = c.denominator
                scale, rest = divmod(D, d)
                if rest:
                    grow = d // math.gcd(D, d)
                    D *= grow
                    acc *= grow
                    scale = D // d
                acc += c.numerator * scale * fact[j]
        total += Fraction(acc, D * i ** (z + J))
    return total


def _l_moment(a: int) -> _IntExpPoly:
    """The weighted incomplete moment L_a(x) = int_0^x t^a (x-t)^2 e^(-t) dt.

    Returned as integer coefficient lists indexed by decay rate, ``[steady,
    decaying]``, for L_a = steady(x) + e^(-x) decaying(x).  Closed form
    (repeated integration by parts):
        [(a+2)! - 2(a+1)! x + a! x^2]
        - e^(-x) * sum_{k=0}^{a} (a!/k!) (a-k+1) (a-k+2) x^k
    """
    steady = [math.factorial(a + 2), -2 * math.factorial(a + 1), math.factorial(a)]
    falling = list(accumulate(range(a, 0, -1), operator.mul, initial=1))  # a!/(a-t)! at t
    return [steady, [-falling[a - k] * (a - k + 1) * (a - k + 2) for k in range(a + 1)]]


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


def _det_bareiss(rows: list[list[_IntExpPoly]]) -> _IntExpPoly:
    """Determinant of a matrix of exponential polynomials with integer coefficients.

    Entries and result are ``_IntExpPoly``; an empty list is a zero entry.
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
    bound = math.prod(sum(abs(c) for e in row for p in e for c in p) for row in rows)
    if not bound:
        return []
    width = (bound.bit_length() + 9) // 8
    d = sum(max(map(len, row)) - 1 for row in rows)
    # a Hankel matrix repeats one entry object along each anti-diagonal: pack it once
    packed = {id(e): [_pack(p, width) for p in e] for row in rows for e in row}
    values = []
    for y in range(d + 1):
        at_y = {key: sum(v * y**m for m, v in enumerate(e)) for key, e in packed.items()}
        values.append(_bareiss([[at_y[id(e)] for e in row] for row in rows]))
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
    terms = []
    for total in combined:
        coeff_at_x, rest = divmod(total, math.factorial(d))
        if rest:
            raise ConsistencyError("determinant values are not a polynomial in e^(-x)")
        terms.append(_unpack(coeff_at_x, width))
    return terms


def coefficient_table(K: int, N: int) -> CoefficientTable:
    """Coefficient table for any K >= 2 via the determinant of the moment matrix.

    The largest-eigenvalue density equals
        D(K,N) * x^(N-K) * e^(-x) * det[L_{N-K+r+s}(x)]_{r,s=0..K-2};
    the determinant has integer coefficients, and its coefficient of
    e^(-(i-1)*x) x^(j-N+K), times D(K,N), is c_{i,j}.
    """
    _check_shape(K, N)
    _check_size(K, N)
    n = K - 1
    moments = [_l_moment(N - K + a) for a in range(2 * n - 1)]
    det = _det_bareiss([[moments[r + s] for s in range(n)] for r in range(n)])
    denom = d_constant(K, N).denominator
    nonzero = {
        (m + 1, k + N - K): Fraction(c, denom)
        for m, coeffs in enumerate(det)
        for k, c in enumerate(coeffs)
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
def table_to_json(table: CoefficientTable) -> str:
    """Serialize a table; big integers become decimal strings so any JSON parser survives."""
    import json

    payload = {
        "K": table.K,
        "N": table.N,
        "entries": [
            {"i": i, "j": j, "num": str(c.numerator), "den": str(c.denominator)}
            for (i, j), c in sorted(table.entries.items())
        ],
    }
    return json.dumps(payload, indent=2)


def table_from_json(text: str) -> CoefficientTable:
    """Inverse of :func:`table_to_json`; revalidates all invariants on load."""
    import json

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

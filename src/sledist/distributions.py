"""Exact distribution of the scaled largest eigenvalue (SLE) of a complex Wishart matrix.

Given the coefficient table of the largest-eigenvalue density, the statistic

    X = lambda_max(R) / (trace(R) / K)

has support [1, K] and a density that is a polynomial on each interval between
consecutive breakpoints K/i (i = 1..K).  This module assembles those piecewise
polynomials exactly, evaluates them in floats through one Chebyshev model per
segment, and computes quantiles, detection thresholds, and exact rational moments, plus
the moments of the Gamma-distributed normalized trace that link the SLE moments
to the raw largest-eigenvalue moments.

Float evaluation: each segment gets one model, built on its first
evaluation.  The exact segment polynomial is converted to a Chebyshev series on
the segment in integer arithmetic, then chopped to the fewest terms whose
dropped coefficients sum, exactly and in absolute value, to under 2.5e-14.  The
model keeps the exact polynomial's values at the Chebyshev-Lobatto points of
the chopped degree, each rounded once to a double, and evaluates by the
second-form barycentric formula.  The interpolant lies within twice the dropped
tail of the exact polynomial (Trefethen, Approximation Theory and Approximation
Practice, Thm 4.2), and the barycentric formula is forward stable at these
points (Higham, IMA J. Numer. Anal. 24, 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from .coefficients import CoefficientTable, ConsistencyError
from .exact import Polynomial, Rational

__all__ = [
    "PiecewisePolynomial",
    "SleDistribution",
    "build_sle_pdf",
    "build_sle_cdf",
    "sle_distribution",
    "quantile",
    "threshold_for_false_alarm",
    "sle_moment",
    "lambda1_moment",
    "trace_moment",
    "default_grid",
    "write_distribution_csv",
]

# absolute budget on the exact Chebyshev tail sum_{k>=n} |c_k| a segment may drop
_CHOP_BUDGET = Fraction(2.5e-14)
# points per barycentric block: a block's point-by-node matrix stays in cache
_EVAL_CHUNK = 4096
_QUANTILE_XTOL = 1e-12
_QUANTILE_MAX_ITER = 200


class PiecewisePolynomial:
    """Polynomial segments between exact rational breakpoints.

    ``segments[t]`` applies on ``[breakpoints[t], breakpoints[t+1])``; the last
    segment also owns its right endpoint.  Outside the span, evaluation returns
    ``outside_low`` / ``outside_high`` (0/0 for a density, 0/1 for a CDF).
    All stored data is exact; float conversion happens lazily per segment and
    is cached.
    """

    def __init__(
        self,
        breakpoints: Sequence[Rational],
        segments: Sequence[Polynomial],
        outside_low: Rational = Fraction(0),
        outside_high: Rational = Fraction(0),
    ):
        bps = tuple(Fraction(b) for b in breakpoints)
        segs = tuple(segments)
        if len(bps) != len(segs) + 1:
            raise ValueError(f"{len(bps)} breakpoints cannot delimit {len(segs)} segments")
        if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.segments = segs
        self.outside_low = Fraction(outside_low)
        self.outside_high = Fraction(outside_high)
        self._bps_float = np.array([float(b) for b in bps])
        self._models: dict[int, _ChebModel] = {}

    @property
    def lower(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def upper(self) -> Fraction:
        return self.breakpoints[-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PiecewisePolynomial):
            return (
                self.breakpoints == other.breakpoints
                and self.segments == other.segments
                and self.outside_low == other.outside_low
                and self.outside_high == other.outside_high
            )
        return NotImplemented

    # -- exact paths --------------------------------------------------------

    def segment_index(self, x: Rational) -> int:
        """Index of the segment owning x (right-continuous; upper endpoint closed)."""
        if not self.lower <= x <= self.upper:
            raise ValueError(f"{x} outside span [{self.lower}, {self.upper}]")
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if x >= self.breakpoints[mid]:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def value_exact(self, x: Rational) -> Fraction:
        x = Fraction(x)
        if x < self.lower:
            return self.outside_low
        if x > self.upper:
            return self.outside_high
        return self.segments[self.segment_index(x)](x)

    def integral(self) -> Fraction:
        """Exact integral over the whole span (antiderivative telescoping)."""
        total = Fraction(0)
        for t, seg in enumerate(self.segments):
            anti = seg.antiderivative()
            total += anti(self.breakpoints[t + 1]) - anti(self.breakpoints[t])
        return total

    # -- float evaluation ---------------------------------------------------

    def _model(self, t: int) -> _ChebModel:
        model = self._models.get(t)
        if model is None:
            try:
                model = _chebyshev_model(
                    self.segments[t], self.breakpoints[t], self.breakpoints[t + 1]
                )
            except OverflowError:
                raise ValueError(
                    f"segment {t} on [{self.breakpoints[t]}, {self.breakpoints[t + 1]}] "
                    "takes values beyond the double range"
                ) from None
            self._models[t] = model
        return model

    def eval_many(self, xs: Iterable[float], backend: object = None) -> np.ndarray:
        """Vectorized float evaluation; clamps outside the span, rejects NaN.

        ``backend`` is ignored: evaluation has a single numpy path.  The slot
        stays because the benchmark's tracing wrapper passes it positionally.
        """
        arr = np.asarray(xs, dtype=np.float64)
        if np.isnan(arr).any():
            raise ValueError("cannot evaluate at NaN")
        flat = arr.ravel()
        out = np.empty(flat.shape)
        lo, hi = self._bps_float[0], self._bps_float[-1]
        below = flat < lo
        above = flat > hi
        out[below] = float(self.outside_low)
        out[above] = float(self.outside_high)
        inside = ~(below | above)
        pts = flat[inside]
        idx = np.searchsorted(self._bps_float, pts, side="right") - 1
        np.clip(idx, 0, len(self.segments) - 1, out=idx)
        vals = np.empty(pts.shape)
        for t in np.unique(idx):
            sel = idx == t
            vals[sel] = self._model(int(t))(pts[sel])
        out[inside] = vals
        return out.reshape(arr.shape)

    def eval(self, x: float) -> float:
        """Scalar float evaluation (same path as :meth:`eval_many`)."""
        if math.isnan(x):
            raise ValueError("cannot evaluate at NaN")
        return float(self.eval_many(np.array([float(x)]))[0])


@dataclass(frozen=True, eq=False)
class _ChebModel:
    """One segment's Chebyshev-Lobatto interpolant, evaluated in barycentric form."""

    nodes: np.ndarray  # ascending; the first and last are the segment's float endpoints
    values: np.ndarray  # the exact polynomial at each node, rounded once
    weighted: np.ndarray  # columns w_k * values_k and w_k, w_k the barycentric weights
    tail: Fraction  # exact sum of |c_k| over the dropped Chebyshev terms

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """Second-form barycentric formula; a point on a node returns that node's value."""
        out = np.empty(xs.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for start in range(0, xs.size, _EVAL_CHUNK):
                r = xs[start : start + _EVAL_CHUNK, None] - self.nodes
                np.divide(1.0, r, out=r)
                sums = r @ self.weighted
                out[start : start + _EVAL_CHUNK] = sums[:, 0] / sums[:, 1]
        # exactly on a node the sums are inf/inf; no other point gives NaN
        hit = np.isnan(out)
        if hit.any():
            out[hit] = self.values[np.searchsorted(self.nodes, xs[hit])]
        return out


def _chebyshev_model(seg: Polynomial, lo: Fraction, hi: Fraction) -> _ChebModel:
    """Chop the exact Chebyshev series of ``seg`` on [lo, hi] and sample it.

    With x = (lo + hi)/2 + (hi - lo)/2 * u and Q the common denominator of lo
    and hi, 4Q*x = P + H*(2u) for the integers P = 2Q(lo + hi), H = Q(hi - lo).
    Writing seg = sum_k A_k x^k / D over integers, Horner's rule in the
    Chebyshev basis of u, c <- (P + H*2u)*c + A_k*(4Q)^(d-k), with
    2u*T_0 = 2T_1 and 2u*T_j = T_(j-1) + T_(j+1), gives
    seg = sum_j c_j T_j(u) / (D*(4Q)^d) with every c_j an integer.

    The model keeps the fewest n >= 1 terms whose dropped tail
    sum_(k>=n) |c_k| is under ``_CHOP_BUDGET`` and stores seg at the n + 1
    Chebyshev-Lobatto points, each value one correctly rounded ``int / int``
    (so F(K) = 1 reads exactly 1.0).  A value past the double range raises
    OverflowError.
    """
    coeffs = seg.coefficients or (Fraction(0),)
    d = len(coeffs) - 1
    D = math.lcm(*(c.denominator for c in coeffs))
    A = [c.numerator * (D // c.denominator) for c in coeffs]
    Q = math.lcm(lo.denominator, hi.denominator)
    P = int(2 * Q * (lo + hi))
    H = int(Q * (hi - lo))
    c = [A[d]]
    scale = 1
    for k in range(d - 1, -1, -1):
        hc = [H * v for v in c]
        from_above = hc[1:] + [0, 0]
        from_below = [0, 2 * hc[0]] + hc[1:]
        c = [P * v + a + b for v, a, b in zip(c + [0], from_above, from_below)]
        scale *= 4 * Q
        c[0] += A[k] * scale
    den = D * scale
    limit = _CHOP_BUDGET.numerator * den
    n, tail = len(c), 0
    while n > 1 and (tail + abs(c[n - 1])) * _CHOP_BUDGET.denominator < limit:
        n -= 1
        tail += abs(c[n])

    lo_f, hi_f = float(lo), float(hi)
    nodes = (lo_f + 0.5 * (hi_f - lo_f)) + 0.5 * (hi_f - lo_f) * np.cos(
        np.pi * np.arange(n, -1, -1) / n
    )
    nodes[0] = lo_f
    nodes[-1] = hi_f
    weights = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    values = np.empty(n + 1)
    for t, x in enumerate(nodes.tolist()):
        # sum_k A_k num^k den^(d-k) by Horner, with den = 2^shift a power of two
        num, x_den = x.as_integer_ratio()
        shift = x_den.bit_length() - 1
        acc = 0
        for k, a in enumerate(reversed(A)):
            acc = acc * num + (a << (shift * k))
        values[t] = acc / (D << (shift * d))
    weighted = np.stack([weights * values, weights], axis=1)
    return _ChebModel(nodes=nodes, values=values, weighted=weighted, tail=Fraction(tail, den))


# ---------------------------------------------------------------------------
# assembly from a coefficient table


def _sle_breakpoints(K: int) -> list[Fraction]:
    return [Fraction(K, i) for i in range(K, 0, -1)]


def build_sle_pdf(table: CoefficientTable) -> PiecewisePolynomial:
    """Density of X on [1, K] as one exact polynomial per breakpoint interval.

    Each table entry (i, j) contributes
        (KN-1)!/K^(KN-1) * i^e/e! * c_{i,j} * x^j * (K/i - x)^e,  e = KN-j-2,
    gated to x <= K/i.  Since i^e * (K/i - x)^e = (K - i*x)^e, block i is
        pref * sum_j (c_{i,j}/e_j!) * x^j * (K - i*x)^(e_j),  pref = (KN-1)!/K^(KN-1).
    The weights c_{i,j}/e_j! are put over one common denominator den, so the
    binomial expansion runs on integers: term t of (K - i*x)^e is
    C(e, t) * K^(e-t) * (-i)^t, reached from its predecessor by multiplying by
    (e-t)*(-i) and dividing exactly by (t+1)*K.  Each accumulated integer
    becomes a Fraction once, scaled by pref/den.

    On [K/(m+1), K/m) exactly the blocks i <= m are active, so the gate
    disappears into the segment structure: each segment is the previous one
    plus one block.  Block K is gated at x <= 1 and never enters a segment.
    """
    K, N = table.K, table.N
    KN = K * N
    pref = Fraction(math.factorial(KN - 1), K ** (KN - 1))
    weights: dict[int, list[tuple[int, Fraction]]] = {i: [] for i in range(1, K + 1)}
    for (i, j), c in table.entries.items():
        if not c:
            continue
        e = KN - j - 2
        if e < 0:
            raise ConsistencyError(
                f"entry (i={i}, j={j}) implies negative exponent {e} for K={K}, N={N}"
            )
        weights[i].append((j, c / math.factorial(e)))
    segments = []
    seg = Polynomial()
    for i in range(1, K):
        den = math.lcm(*(w.denominator for _, w in weights[i]))
        acc = [0] * (KN - 1)
        for j, w in weights[i]:
            e = KN - j - 2
            b = w.numerator * (den // w.denominator) * K**e
            acc[j] += b
            for t in range(e):
                b = b * (e - t) * -i // ((t + 1) * K)
                acc[j + t + 1] += b
        scale = pref / den
        seg = seg + Polynomial([scale * a for a in acc])
        segments.append(seg)
    segments.reverse()
    return PiecewisePolynomial(_sle_breakpoints(K), segments)


def build_sle_cdf(pdf: PiecewisePolynomial) -> PiecewisePolynomial:
    """CDF of X on [1, K] as the exact piecewise antiderivative of the density.

    Each segment is the antiderivative of the PDF segment plus the constant
    that makes it meet the running level at its left breakpoint; the level
    starts at F(1) = 0 and is carried across every breakpoint, so the CDF is
    continuous by construction.  F(K) = 1 is not imposed: ``SleDistribution``
    checks it, independently of the derivation.
    """
    bps = pdf.breakpoints
    level = Fraction(0)
    segments = []
    for t, seg in enumerate(pdf.segments):
        anti = seg.antiderivative()
        anti = anti + Polynomial([level - anti(bps[t])])
        segments.append(anti)
        level = anti(bps[t + 1])
    return PiecewisePolynomial(bps, segments, outside_low=Fraction(0), outside_high=Fraction(1))


@dataclass(frozen=True, eq=False)
class SleDistribution:
    """Exact SLE distribution: coefficient table plus assembled PDF and CDF.

    Construction re-derives nothing; it verifies everything: unit mass of the
    PDF, CDF boundary values, continuity at breakpoints, and coefficient-exact
    equality of the CDF derivative with the PDF on every segment.
    """

    table: CoefficientTable
    pdf: PiecewisePolynomial
    cdf: PiecewisePolynomial

    def __post_init__(self):
        K = self.table.K
        if self.pdf.lower != 1 or self.pdf.upper != K:
            raise ConsistencyError(f"PDF span {self.pdf.lower}..{self.pdf.upper} is not [1, {K}]")
        if self.pdf.breakpoints != self.cdf.breakpoints:
            raise ConsistencyError("PDF and CDF disagree on breakpoints")
        if self.pdf.integral() != 1:
            raise ConsistencyError("PDF does not integrate to exactly 1")
        if self.cdf.value_exact(Fraction(1)) != 0:
            raise ConsistencyError("CDF is nonzero at the lower support endpoint")
        if self.cdf.value_exact(Fraction(K)) != 1:
            raise ConsistencyError("CDF does not reach 1 at the upper support endpoint")
        for t, (cseg, pseg) in enumerate(zip(self.cdf.segments, self.pdf.segments)):
            if cseg.derivative() != pseg:
                raise ConsistencyError(f"CDF derivative differs from PDF on segment {t}")
        for t in range(len(self.cdf.segments) - 1):
            b = self.cdf.breakpoints[t + 1]
            if self.cdf.segments[t](b) != self.cdf.segments[t + 1](b):
                raise ConsistencyError(f"CDF jumps at breakpoint {b}")

    @property
    def K(self) -> int:
        return self.table.K


def sle_distribution(table: CoefficientTable) -> SleDistribution:
    """Assemble and validate the full distribution for one coefficient table."""
    pdf = build_sle_pdf(table)
    return SleDistribution(table=table, pdf=pdf, cdf=build_sle_cdf(pdf))


def quantile(d: SleDistribution, p: float) -> float:
    """Inverse CDF by bisection to absolute x-tolerance 1e-12."""
    if math.isnan(p) or not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    K = float(d.K)
    if p == 0:
        return 1.0
    if p == 1:
        return K
    lo, hi = 1.0, K
    for _ in range(_QUANTILE_MAX_ITER):
        if hi - lo <= _QUANTILE_XTOL:
            break
        mid = 0.5 * (lo + hi)
        if d.cdf.eval(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_for_false_alarm(d: SleDistribution, alpha: float) -> float:
    """Detection threshold t with P(X > t) = alpha."""
    if math.isnan(alpha) or not 0 < alpha < 1:
        raise ValueError(f"false-alarm rate must lie strictly in (0, 1), got {alpha}")
    return quantile(d, 1.0 - alpha)


def sle_moment(d: SleDistribution, m: int) -> Fraction:
    """Exact E[X^m] by per-segment antiderivative telescoping."""
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    total = Fraction(0)
    for t, seg in enumerate(d.pdf.segments):
        anti = seg.shift_powers(m).antiderivative()
        total += anti(d.pdf.breakpoints[t + 1]) - anti(d.pdf.breakpoints[t])
    return total


def lambda1_moment(table: CoefficientTable, z: int) -> Fraction:
    """Exact E[lambda_max^(z-1)] from the coefficient table at integer z >= 1."""
    if z < 1:
        raise ValueError(f"transform order must be >= 1, got {z}")
    total = Fraction(0)
    for (i, j), c in table.entries.items():
        if c:
            total += c * math.factorial(z + j - 1) / Fraction(i) ** (z + j)
    return total


def trace_moment(K: int, N: int, z: int) -> Fraction:
    """Exact E[T^(z-1)] for the normalized trace T = trace(R)/K at integer z >= 1.

    T is Gamma(KN, 1/K): 2*K*T is chi-square with 2KN degrees of freedom.
    """
    if K < 1 or N < 1:
        raise ValueError(f"need K, N >= 1, got K={K}, N={N}")
    if z < 1:
        raise ValueError(f"transform order must be >= 1, got {z}")
    KN = K * N
    return Fraction(math.factorial(z + KN - 2), math.factorial(KN - 1) * K ** (z - 1))


# ---------------------------------------------------------------------------
# tabulation


def default_grid(K: int, n: int = 512) -> np.ndarray:
    """n uniform points on [1, K] merged with the breakpoints K/i (kinks stay visible)."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    uniform = np.linspace(1.0, float(K), n)
    bps = np.array([float(b) for b in _sle_breakpoints(K)])
    return np.union1d(uniform, bps)


def write_distribution_csv(d: SleDistribution, grid: np.ndarray, stream: IO[str]) -> None:
    """Rows of `x,pdf,cdf` in shortest round-trip decimal.

    PDF values are clipped at 0 and CDF values to [0, 1], the exact ranges,
    so the clips only remove evaluation error.
    """
    pdf_vals = np.maximum(d.pdf.eval_many(grid), 0.0)
    cdf_vals = np.clip(d.cdf.eval_many(grid), 0.0, 1.0)
    stream.write("x,pdf,cdf\n")
    for x, f, F in zip(grid, pdf_vals, cdf_vals):
        stream.write(f"{float(x)!r},{float(f)!r},{float(F)!r}\n")

"""Exact distribution of the scaled largest eigenvalue (SLE) of a complex Wishart matrix.

Given the coefficient table of the largest-eigenvalue density, the statistic

    X = lambda_max(R) / (trace(R) / K)

has support [1, K] and a density that is a polynomial on each interval between
consecutive breakpoints K/i (i = 1..K).  This module assembles those piecewise
polynomials exactly, provides float evaluation with a certified accuracy model,
and computes quantiles, detection thresholds, and exact rational moments, plus
the Gamma-distributed normalized trace that links the SLE moments to the raw
largest-eigenvalue moments.

Float evaluation strategy: each segment polynomial is first re-centered on the
segment midpoint by an exact Taylor shift.  If a rigorous bound on the float64
Horner rounding error is small enough, the segment is evaluated directly in
doubles; otherwise the exact polynomial is resampled at Chebyshev nodes in
extended precision and evaluated by stable barycentric interpolation.  Exact
rational arithmetic everywhere upstream guarantees the resampled values are
correct; the fallback only controls evaluation rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Sequence

import mpmath
import numpy as np

from .backends import Backend, get_backend
from .coefficients import CoefficientTable, ConsistencyError
from .exact import Polynomial, Rational

__all__ = [
    "PiecewisePolynomial",
    "SleDistribution",
    "TraceDistribution",
    "build_sle_pdf",
    "build_sle_cdf",
    "sle_distribution",
    "quantile",
    "threshold_for_false_alarm",
    "sle_moment",
    "lambda1_moment",
    "trace_moment",
    "trace_pdf_eval",
    "default_grid",
    "write_distribution_csv",
]

_EPS = 2.220446049250313e-16
# a segment whose certified float64 Horner error exceeds this switches to the
# extended-precision Chebyshev resampling path
_HORNER_BOUND = 1e-13
_QUANTILE_XTOL = 1e-12
_QUANTILE_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class _HornerModel:
    mid: float
    coeffs_desc: np.ndarray  # highest power first, shifted basis


@dataclass(frozen=True, eq=False)
class _ChebModel:
    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray


def _safe_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


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
        self._models: dict[int, _HornerModel | _ChebModel] = {}

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

    def derivative(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(self.breakpoints, [s.derivative() for s in self.segments])

    def integral(self) -> Fraction:
        """Exact integral over the whole span (antiderivative telescoping)."""
        total = Fraction(0)
        for t, seg in enumerate(self.segments):
            anti = seg.antiderivative()
            total += anti(self.breakpoints[t + 1]) - anti(self.breakpoints[t])
        return total

    # -- float evaluation ---------------------------------------------------

    def _model(self, t: int) -> _HornerModel | _ChebModel:
        model = self._models.get(t)
        if model is None:
            # Python floats, not numpy scalars: the mass bound may overflow to
            # inf, which numpy would report as a RuntimeWarning
            model = _build_segment_model(
                self.segments[t], float(self._bps_float[t]), float(self._bps_float[t + 1])
            )
            self._models[t] = model
        return model

    def eval_many(self, xs: Iterable[float], backend: Backend | str | None = None) -> np.ndarray:
        """Vectorized float evaluation; clamps outside the span, rejects NaN."""
        arr = np.asarray(xs, dtype=np.float64)
        if np.isnan(arr).any():
            raise ValueError("cannot evaluate at NaN")
        be = backend if isinstance(backend, Backend) else get_backend(backend)
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
            model = self._model(int(t))
            if isinstance(model, _HornerModel):
                vals[sel] = be.horner_many(model.coeffs_desc, model.mid, pts[sel])
            else:
                vals[sel] = be.barycentric_many(
                    model.nodes, model.values, model.weights, pts[sel]
                )
        out[inside] = vals
        return out.reshape(arr.shape)

    def eval(self, x: float, backend: Backend | str | None = None) -> float:
        """Scalar float evaluation (same path as :meth:`eval_many`)."""
        if math.isnan(x):
            raise ValueError("cannot evaluate at NaN")
        return float(self.eval_many(np.array([float(x)]), backend)[0])

    __call__ = eval


# segments up to this degree get an exact midpoint Taylor shift (O(degree^2)
# rational operations) before falling back; above it the shift costs more than
# the extended-precision resampling it tries to avoid
_SHIFT_DEGREE_LIMIT = 128


def _mass_and_floats(coeffs: list[Fraction], radius: float) -> tuple[float, list[float]]:
    """sum |a_k| radius^k plus the float64 images of the coefficients (inf on overflow)."""
    floats = [_safe_float(c) for c in coeffs]
    mass = 0.0
    rk = 1.0
    for c in floats:
        mass += abs(c) * rk
        rk *= radius
    return mass, floats


def _mass_bits(coeffs: list[Fraction], radius: float) -> int:
    """Upper bound on log2 of the cancellation mass, safe for astronomically large coefficients."""
    log_r = math.log2(radius) if radius > 0 else 0.0
    bits = max(
        (c.numerator.bit_length() - c.denominator.bit_length()) + int(math.ceil(k * log_r))
        for k, c in enumerate(coeffs)
        if c
    )
    return max(0, bits + len(coeffs).bit_length() + 2)


def _horner_bound(d: int, mass: float) -> float:
    return _EPS * 2 * (d + 1) * mass * 1.0000001


def _build_segment_model(seg: Polynomial, lo: float, hi: float) -> _HornerModel | _ChebModel:
    """Pick the cheapest float model whose rounding error is certified small.

    Three rungs, each with a rigorous error bound: plain Horner on the stored
    coefficients when the global cancellation mass sum|a_k| x^k is tiny; exact
    Taylor shift to the (float-snapped) segment midpoint for moderate degrees,
    after which the recentral mass usually collapses and Horner applies; and
    otherwise Chebyshev resampling of the exact polynomial in extended
    precision, evaluated by stable barycentric interpolation.
    """
    coeffs = list(seg.coefficients) or [Fraction(0)]
    d = len(coeffs) - 1
    xmax = max(abs(lo), abs(hi)) * 1.0000001
    mass, floats = _mass_and_floats(coeffs, xmax)
    if math.isfinite(mass) and _horner_bound(d, mass) <= _HORNER_BOUND:
        return _HornerModel(mid=0.0, coeffs_desc=np.array(floats[::-1]))
    if d <= _SHIFT_DEGREE_LIMIT:
        mid_f = lo + 0.5 * (hi - lo)
        shifted = list(seg.compose_shift(Fraction(mid_f)).coefficients) or [Fraction(0)]
        r = (hi - lo) * 0.5000001
        s_mass, s_floats = _mass_and_floats(shifted, r)
        if math.isfinite(s_mass) and _horner_bound(d, s_mass) <= _HORNER_BOUND:
            return _HornerModel(mid=mid_f, coeffs_desc=np.array(s_floats[::-1]))
        prec = 64 + (int(math.log2(s_mass)) + 1 if math.isfinite(s_mass) and s_mass > 0
                     else _mass_bits(shifted, r))
        return _cheb_model(shifted, mid_f, lo, hi, prec)
    prec = 64 + (int(math.log2(mass)) + 1 if math.isfinite(mass) and mass > 0
                 else _mass_bits(coeffs, xmax))
    return _cheb_model(coeffs, 0.0, lo, hi, prec)


def _cheb_model(coeffs: list[Fraction], center: float, lo: float, hi: float, prec: int) -> _ChebModel:
    """Resample the exact polynomial at Chebyshev points in extended precision.

    ``coeffs`` is taken in powers of (x - center).  The working precision must
    cover the cancellation mass of that basis; the caller supplies it.  Nodes
    are float-exact, so evaluating at mpf(node) - center reproduces the exact
    polynomial value to 2^-64 absolute, and the node count (degree + 1) makes
    barycentric interpolation exact up to evaluation rounding.
    """
    d = max(len(coeffs) - 1, 1)
    nodes = (lo + 0.5 * (hi - lo)) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(d, -1, -1) / d)
    nodes[0] = lo
    nodes[-1] = hi
    weights = np.where(np.arange(d + 1) % 2 == 0, 1.0, -1.0)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    with mpmath.mp.workprec(prec):
        center_mp = mpmath.mpf(center)
        cs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in coeffs]
        values = np.empty(d + 1)
        for t in range(d + 1):
            u = mpmath.mpf(float(nodes[t])) - center_mp
            acc = cs[-1]
            for k in range(len(cs) - 2, -1, -1):
                acc = acc * u + cs[k]
            values[t] = float(acc)
    return _ChebModel(nodes=nodes, values=values, weights=weights)


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

    @property
    def N(self) -> int:
        return self.table.N

    def pdf_at(self, x: float) -> float:
        return self.pdf.eval(x)

    def cdf_at(self, x: float) -> float:
        return self.cdf.eval(x)

    def quantile(self, p: float) -> float:
        return quantile(self, p)

    def threshold(self, alpha: float) -> float:
        return threshold_for_false_alarm(self, alpha)

    def moment(self, m: int) -> Fraction:
        return sle_moment(self, m)


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


def trace_pdf_eval(K: int, N: int, x: float) -> float:
    """Density K^(KN)/(KN-1)! * x^(KN-1) * e^(-Kx) of the normalized trace.

    Computed in log space; the direct form overflows once KN is large.
    """
    if K < 1 or N < 1:
        raise ValueError(f"need K, N >= 1, got K={K}, N={N}")
    if math.isnan(x):
        raise ValueError("cannot evaluate at NaN")
    if x <= 0:
        return 0.0
    KN = K * N
    log_pdf = KN * math.log(K) - math.lgamma(KN) + (KN - 1) * math.log(x) - K * x
    return math.exp(log_pdf)


@dataclass(frozen=True)
class TraceDistribution:
    """Normalized trace T = trace(R)/K: Gamma with shape KN and rate K."""

    K: int
    N: int

    def __post_init__(self):
        if self.K < 1 or self.N < 1:
            raise ValueError(f"need K, N >= 1, got K={self.K}, N={self.N}")

    def pdf(self, x: float) -> float:
        return trace_pdf_eval(self.K, self.N, x)

    def moment(self, z: int) -> Fraction:
        return trace_moment(self.K, self.N, z)

    @property
    def mean(self) -> Fraction:
        return self.moment(2)


# ---------------------------------------------------------------------------
# tabulation


def default_grid(K: int, n: int = 512) -> np.ndarray:
    """n uniform points on [1, K] merged with the breakpoints K/i (kinks stay visible)."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    uniform = np.linspace(1.0, float(K), n)
    bps = np.array([float(Fraction(K, i)) for i in range(K, 0, -1)])
    return np.union1d(uniform, bps)


def write_distribution_csv(d: SleDistribution, grid: np.ndarray, stream: IO[str]) -> None:
    """Rows of `x,pdf,cdf` in shortest round-trip decimal."""
    pdf_vals = d.pdf.eval_many(grid)
    cdf_vals = d.cdf.eval_many(grid)
    stream.write("x,pdf,cdf\n")
    for x, f, F in zip(grid, pdf_vals, cdf_vals):
        stream.write(f"{float(x)!r},{float(f)!r},{float(F)!r}\n")

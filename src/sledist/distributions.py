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

A distribution's PDF and CDF share one conversion per segment.  Once
``SleDistribution`` has checked that each CDF segment differentiates to the
PDF segment, the PDF takes its series from the CDF's, which the CDF keeps, by
the Chebyshev derivative recurrence in O(d) (Mason & Handscomb, *Chebyshev
Polynomials*, ch. 2): the same rationals, so the same chop and tail,
whichever model is built first.  A hand-built ``PiecewisePolynomial`` converts
its own segments.  Each node value comes from one fixed-point Horner pass
with a certified error bound, kept when both ends of the bound round to the
same double (Ziv, ACM TOMS 17, 1991), and from exact Horner on integers when
they do not, when the bound holds 0, or past the double range: the exact
value correctly rounded.

A warm evaluation pays for little beyond that formula.  ``eval``, which
bisection calls, stays on Python floats up to the model's one-row product.
``eval_many`` groups a batch by segment with one radix sort of the segment
codes, 8-bit up to 254 segments, and each model forms its point-by-node
differences x - x_k as one product of (x, 1) rows with ``[1; -nodes]``: both
products are exact, so BLAS rounds each entry once, to the bits of the
subtraction, in place of a broadcast loop as short as the node count.  The
sums overwrite those rows,
so one division serves the whole batch, and the passes for points off the
span, NaN and node hits run only when a point needs them.  The tests hold
both paths, bit for bit, to a reference dispatch that selects each
segment's points by a mask and subtracts.

``quantile`` bisects the float CDF, but exact levels decide every step they
can.  Once per call it takes the last breakpoint whose exact CDF level,
computed by construction for its checks, lies more than 1e-9 below p and the
first whose level lies more than 1e-9 above it.  A midpoint at or below the
first kind has F(mid) < p - 1e-9, so the float CDF, certified within 1e-13,
reads below p there and the step sets ``lo``; at or above the second kind it
sets ``hi``.  The margin is 1e4 times the certified error, and covers the
rounding of the levels and breakpoints to floats.  When p lies inside one
segment, the values of its model's nodes, each the exact F(x_k) rounded
once, decide midpoints by the same rule, and a few probes narrow the node
gap that is left: secant steps on the model, each deciding the midpoints on
its side when its value lies more than 2.5e-13, twice the certified error
and some room, from p (``_ChebModel.narrow``).  Only midpoints between the
two ends evaluate, so the steps, and the answer, are those of plain
bisection.  A warm threshold takes about 13 evaluations in place of 41, and
a cold call builds the float model of the answer's segment alone, unless p
lies within the margin of a breakpoint level.

A step that evaluates asks only whether ``eval(mid) < p``.  Until numpy is
loaded, the segment's model answers on Python floats: it sums the
barycentric terms with ``math.fsum`` and bounds how far any BLAS summation
order could round from that sum (``_ChebModel.interval``).  An interval
wholly below p, or wholly at or above it, decides the step as the one-row
product would; otherwise the step runs that product, as ``eval`` does,
which loads numpy.  A probe before numpy is loaded reads the same interval
and never runs the product, so a cold call loads numpy only where plain
bisection would.  Once numpy is loaded, every step and probe runs the
product, the cheaper of the two.  Either way the answer is bit for bit that
of bisection on ``eval``.  A step stays undecided when F(mid) lies within
the bound of p, which happens mostly at small alpha, where the density is
small and the last steps move F by little more than the bound.

Models are built on Python floats, and numpy loads on the first operation
that needs an array: ``eval``, a bisection step the bound leaves undecided,
``eval_many``, a model's ``nodes``, ``values`` or ``weighted``,
``default_grid`` or ``write_distribution_csv``.  Until then this module, and
so the exact assembly, the checks, the moments and most cold thresholds and
quantiles, import nothing outside the standard library.  ``eval`` and the
models reach numpy through the module global that ``_load_numpy`` sets, with
no import statement per call.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import mul
from typing import IO, Iterable, Sequence

from .coefficients import CoefficientTable, ConsistencyError, moment_sum
from .exact import Frozen, Polynomial, Rational, horner, quotients

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
# fixed-point node values: bits past the error bound and a double's 53; exact
# Horner decides the nodes the one pass leaves open
_GUARD_BITS = 64
# points per barycentric block: a block's point-by-node matrix stays in cache
_EVAL_CHUNK = 4096
_QUANTILE_XTOL = 1e-12
_QUANTILE_MAX_ITER = 200
# exact breakpoint levels this far from p decide bisection steps: 1e4 times the certified 1e-13
_LEVEL_MARGIN = 1e-9
# a probe this far from p decides bisection steps: the model lies within the
# certified 1e-13 of F at the probe and at the midpoint, which leaves 5e-14 of
# room for the rounding of p -+ margin; and offset probes aim this many margins
# to either side of the root
_PROBE_MARGIN = 2.5e-13
_PROBE_OFFSET = 1.5
_PROBES = 8  # secant and regula falsi probes per quantile, at most

np = None  # numpy, once an array operation has called _load_numpy


def _load_numpy():
    global np
    if np is None:
        import numpy

        np = numpy


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
        # float segment edges: the last is nudged one ulp up, so a search puts
        # x < lower at 0, x in segment t at t + 1 (x == upper in the last one)
        # and x > upper at len(segs) + 1
        self._edges = [float(b) for b in bps]
        self._edges[-1] = math.nextafter(self._edges[-1], math.inf)
        self._edge_array = None  # _edges as an array, made on the first eval_many
        self._codes = None  # the segment codes 1..len(segs) + 1, made with it
        self._outside = (float(self.outside_low), float(self.outside_high))
        self._models: dict[int, _ChebModel] = {}
        # each converted segment's exact Chebyshev series, kept for a linked derivative
        self._series: dict[int, tuple[list[int], int]] = {}
        # set by SleDistribution once these segments are checked to be its derivatives
        self._antiderivative: PiecewisePolynomial | None = None

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
        return min(bisect_right(self.breakpoints, x), len(self.segments)) - 1

    def value_exact(self, x: Rational) -> Fraction:
        x = Fraction(x)
        if x < self.lower:
            return self.outside_low
        if x > self.upper:
            return self.outside_high
        return self.segments[self.segment_index(x)](x)

    def integral(self, m: int = 0) -> Fraction:
        """Exact integral of x^m times the polynomial over the whole span.

        With a segment's coefficients A_k/D over integers, d its degree and
        B_k/L the quotients A_k/(k+m+1) over their least common denominator,
        the antiderivative of x^m * seg is sum_k B_k x^(k+m+1) / (D*L).  At
        x = a/b it is a^(m+1) * horner(B, a, b) / (b^(d+m+1)*D*L), so a
        segment's integral is one Fraction of integers.
        """
        total = Fraction(0)
        for t, seg in enumerate(self.segments):
            A, D = seg.integer_form()
            if not A:
                continue
            e = len(A) + m  # d + m + 1
            B, L = quotients(A, m + 1)
            (a0, b0), (a1, b1) = (x.as_integer_ratio() for x in self.breakpoints[t : t + 2])
            upper = a1 ** (m + 1) * horner(B, a1, b1) * b0**e
            lower = a0 ** (m + 1) * horner(B, a0, b0) * b1**e
            total += Fraction(upper - lower, (b0 * b1) ** e * D * L)
        return total

    # -- float evaluation ---------------------------------------------------

    def _segment_series(self, t: int) -> tuple[list[int], int]:
        """Segment t's exact Chebyshev series, derived from the antiderivative's when linked.

        A converted series is kept, so each segment's O(d^2) conversion runs
        once for a PDF and CDF, whichever model is built first.
        """
        lo, hi = self.breakpoints[t], self.breakpoints[t + 1]
        if self._antiderivative is not None:
            return _derivative_series(self._antiderivative._segment_series(t), lo, hi)
        series = self._series.get(t)
        if series is None:
            series = self._series[t] = _chebyshev_series(self.segments[t], lo, hi)
        return series

    def _model(self, t: int) -> _ChebModel:
        model = self._models.get(t)
        if model is None:
            try:
                model = _chebyshev_model(
                    self.segments[t],
                    self.breakpoints[t],
                    self.breakpoints[t + 1],
                    self._segment_series(t),
                )
            except OverflowError:
                raise ValueError(
                    f"segment {t} on [{self.breakpoints[t]}, {self.breakpoints[t + 1]}] "
                    "takes values beyond the double range"
                ) from None
            self._models[t] = model
        return model

    def eval_many(self, xs: Iterable[float], backend: object = None) -> np.ndarray:
        """Vectorized float evaluation; off the span the outside values, NaN rejected.

        The points are grouped by segment with one stable sort of their
        unsigned integer segment codes, which numpy runs as a radix sort, and one
        search of the sorted codes finds where each group starts.  Each
        segment's model overwrites its points' (x, 1) rows, in their original
        order and in blocks of ``_EVAL_CHUNK``, with the two barycentric sums
        (see :meth:`_ChebModel.__call__`), and one division over the batch
        takes the quotients.  A point off the span gets the row (value, 1)
        instead.  NaN sorts past every edge, so only the group above the span
        is checked for it, and only a batch whose values hold a NaN looks for
        the node hits that read NaN.  A one-point batch goes through
        :meth:`eval`.  ``backend`` is ignored: evaluation has a single numpy
        path.  The slot stays because the benchmark's tracing wrapper passes
        it positionally.
        """
        _load_numpy()
        arr = np.asarray(xs, dtype=np.float64)
        n = arr.size
        if n == 1:
            return np.full(arr.shape, self.eval(arr.item()))
        flat = arr.ravel()
        if self._edge_array is None:
            self._edge_array = np.array(self._edges)
            # the narrowest type for the codes: 8 bits up to 254 segments, which
            # the stable sort handles in one radix pass
            top = len(self.segments) + 1
            self._codes = np.arange(1, top + 1, dtype=np.min_scalar_type(top))
        codes = self._edge_array.searchsorted(flat, side="right").astype(self._codes.dtype)
        order = codes.argsort(kind="stable")
        # segment t's points are starts[t]:starts[t + 1] in sorted order; the points
        # below the span come first, those above it (NaN too) from starts[-1]
        starts = codes[order].searchsorted(self._codes).tolist()
        pairs = np.empty((n, 2))
        pairs[:, 0] = flat[order]
        pairs[:, 1] = 1.0
        low, high = starts[0], starts[-1]
        if high < n:
            if np.isnan(pairs[high:, 0]).any():
                raise ValueError("cannot evaluate at NaN")
            pairs[high:, 0] = self._outside[1]
        if low:
            pairs[:low, 0] = self._outside[0]
        # each row becomes a numerator and a denominator: (v, 1) off the span
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t, (a, b) in enumerate(zip(starts, starts[1:])):
                if a < b:
                    self._model(t)(pairs[a:b])
            out = np.empty(n)
            out[order] = pairs[:, 0] / pairs[:, 1]
            # a point on a node reads NaN, and so does this sum of squares, which
            # may overflow to inf otherwise; the value there is the node's
            nodes_hit = math.isnan(out.dot(out))
        if nodes_hit:
            for i in np.flatnonzero(np.isnan(out)).tolist():
                out[i] = self.eval(flat[i])
        return out.reshape(arr.shape)

    def eval(self, x: float) -> float:
        """Scalar float evaluation on Python floats, the path bisection takes.

        The model runs its one-row block (``_ChebModel.at``), so the value is
        bit for bit that of a one-point batch.  In a larger batch the matrix
        product may round a point's last bit differently.
        """
        if math.isnan(x):
            raise ValueError("cannot evaluate at NaN")
        x = float(x)
        code = bisect_right(self._edges, x)
        if code == 0:
            return self._outside[0]
        if code > len(self.segments):
            return self._outside[1]
        return self._model(code - 1).at(x)

    def _reads_below(self, x: float, p: float) -> bool:
        """``eval(x) < p`` for x on the span, the question a bisection step asks.

        Until numpy is loaded, the model's rounding bound decides the step
        when p lies outside it (:meth:`_ChebModel.interval`); an undecided
        step, and every step once numpy is loaded, compares
        :meth:`_ChebModel.at`.
        """
        model = self._model(bisect_right(self._edges, x) - 1)
        if np is None:
            bounds = model.interval(x)
            if bounds is not None and not bounds[0] < p <= bounds[1]:
                return bounds[1] < p
        return model.at(x) < p


class _ChebModel(Frozen):
    """One segment's Chebyshev-Lobatto interpolant, evaluated in barycentric form.

    ``nodes`` ascend, the first and last being the segment's float endpoints;
    ``values`` holds the exact polynomial at each node, rounded once;
    ``weighted`` has the columns w_k * values_k and w_k, w_k the barycentric
    weights; ``tail`` is the exact sum of |c_k| over the dropped Chebyshev
    terms; ``at_node`` maps node to value, for :meth:`at`.  The model is built
    on Python floats; the three arrays, and the (2, m) operand
    ``[1, ..., 1; -nodes]`` that :meth:`__call__` forms differences with, are
    made from those lists on first use, which loads numpy, and
    :meth:`interval` needs only the lists.
    """

    __slots__ = ("tail", "at_node", "_lists", "_arrays")

    def __init__(self, nodes: list[float], values: list[float], weights: list[float], tail: Fraction):
        columns = ([w * v for w, v in zip(weights, values)], weights)
        object.__setattr__(self, "_lists", (nodes, values, columns))
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "at_node", dict(zip(nodes, values)))

    def _numpy(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``nodes``, ``values``, ``weighted`` and ``[1; -nodes]``, made on first use."""
        try:
            return self._arrays
        except AttributeError:
            _load_numpy()
            nodes, values, columns = self._lists
            weighted = np.stack([np.array(c) for c in columns], axis=1)
            shift = np.array([[1.0] * len(nodes), [-x for x in nodes]])
            arrays = (np.array(nodes), np.array(values), weighted, shift)
            object.__setattr__(self, "_arrays", arrays)
            return arrays

    nodes = property(lambda self: self._numpy()[0])
    values = property(lambda self: self._numpy()[1])
    weighted = property(lambda self: self._numpy()[2])

    def __repr__(self) -> str:
        return (
            f"_ChebModel(nodes={self.nodes!r}, values={self.values!r}, "
            f"weighted={self.weighted!r}, tail={self.tail!r})"
        )

    def at(self, x: float) -> float:
        """One point: the operations :meth:`__call__` runs on a one-row block."""
        hit = self.at_node.get(x)
        if hit is not None:
            return hit
        nodes, _, weighted, _ = self._numpy()
        r = np.subtract(x, nodes)
        np.reciprocal(r, out=r)
        num, den = r.dot(weighted).tolist()
        return num / den

    def interval(self, x: float) -> tuple[float, float] | None:
        """An interval holding ``at(x)``, on Python floats; None when they cannot bound it.

        :meth:`at` forms q_k = 1/(x - x_k) exactly as this method does, then
        lets BLAS sum the products q_k*a_k of each column a in some order,
        perhaps with fused multiply-adds.  Here t_k = fl(q_k*a_k),
        s = fsum(t) and A = fsum(|t|), both correctly rounded, with
        u = 2^-53.  For m products and any order, the BLAS sum S satisfies
        |S - sum q_k*a_k| <= gamma_m * sum |q_k*a_k|, gamma_m = m*u/(1 - m*u)
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        section 3.1); the products add u * sum |q_k*a_k| and fsum u*|sum t|,
        and sum |q_k*a_k| <= A/(1 - u)^2.  Together
        |S - s| <= ((m + 2)*u + O(m^2*u^2)) * A <= (m + 3)*u*A for m < 2^20.
        Gradual underflow adds at most 2^-1075 per product and fused
        multiply-add, inside the m*2^-1072 added to the radius.  Endpoints
        and quotient corners are rounded outward with ``math.nextafter``, and
        rounding to nearest is monotone, so fl(S0/S1) lies in the interval.
        A denominator interval holding 0, or a non-finite endpoint, gives
        None.  On a node the interval is the node's value alone.
        """
        hit = self.at_node.get(x)
        if hit is not None:
            return hit, hit
        nodes, _, columns = self._lists
        m = len(nodes)
        rel, floor = (m + 3) * 2.0**-53, m * 2.0**-1072
        bounds = []
        try:
            q = [1.0 / (x - node) for node in nodes]
            for column in columns:
                t = list(map(mul, q, column))
                s = math.fsum(t)
                e = math.nextafter(rel * math.fsum(map(abs, t)) + floor, math.inf)
                bounds.append(math.nextafter(s - e, -math.inf))
                bounds.append(math.nextafter(s + e, math.inf))
        except (ArithmeticError, ValueError):
            return None
        n_lo, n_hi, d_lo, d_hi = bounds
        if not all(map(math.isfinite, bounds)) or d_lo <= 0.0 <= d_hi:
            return None
        corners = (n_lo / d_lo, n_lo / d_hi, n_hi / d_lo, n_hi / d_hi)
        return math.nextafter(min(corners), -math.inf), math.nextafter(max(corners), math.inf)

    def narrow(self, p: float, below: float, above: float) -> tuple[float, float]:
        """(below, above) moved in to nodes and probes whose values decide bisection steps.

        For a CDF segment that holds the quantile of p.  A node value is the
        exact F(x_k) rounded once, so the last node whose value lies more than
        ``_LEVEL_MARGIN`` below p, and the first more than that above it,
        decide the midpoints beyond them as the breakpoint levels do
        (``quantile``); ``bisect`` finds both in the value list.  Between
        those two nodes, secant probes through the two latest points, or
        regula falsi on the bracket where a secant step would leave it
        (Brent, *Algorithms for Minimization without Derivatives*, ch. 4),
        seek p; once a probe reads within ``_PROBE_MARGIN`` of p, two more
        straddle the secant root at ``_PROBE_OFFSET`` margins.  A probe whose
        value lies more than the margin below p becomes ``below``, more than
        it above p ``above``.  A warm probe reads :meth:`at`; before numpy
        is loaded it reads :meth:`interval` and decides only when the whole
        interval lies beyond the margin, so it never loads numpy.
        """
        nodes, values, _ = self._lists
        k = bisect_left(values, p - _LEVEL_MARGIN)
        n = bisect_right(values, p + _LEVEL_MARGIN)
        if k:
            below = max(below, nodes[k - 1])
        if n < len(nodes):
            above = min(above, nodes[n])
        if not k or n == len(nodes):
            return below, above
        # the bracket (a, b), and the two latest points (x0, f0), (x1, f1) of f = value - p
        a, fa, b, fb = nodes[k - 1], values[k - 1] - p, nodes[n], values[n] - p
        x0, f0, x1, f1 = a, fa, b, fb
        for _ in range(_PROBES):
            slope = (f1 - f0) / (x1 - x0)
            if not slope > 0.0:
                return a, b
            x = x1 - f1 / slope
            if not a < x < b:
                x = a - fa * (b - a) / (fb - fa)
            bounds = self._probe(x) if a < x < b else None
            if bounds is None:
                return a, b
            f = 0.5 * (bounds[0] + bounds[1]) - p
            x0, f0, x1, f1 = x1, f1, x, f
            if bounds[1] < p - _PROBE_MARGIN:
                a, fa = x, f
            elif bounds[0] > p + _PROBE_MARGIN:
                b, fb = x, f
            else:
                break
        else:
            return a, b
        # x reads within the margin of p: two more probes straddle the secant root
        slope = (f1 - f0) / (x1 - x0)
        if slope > 0.0:
            root, step = x1 - f1 / slope, _PROBE_OFFSET * _PROBE_MARGIN / slope
            for x in (root - step, root + step):
                bounds = self._probe(x) if a < x < b else None
                if bounds is not None and bounds[1] < p - _PROBE_MARGIN:
                    a = x
                elif bounds is not None and bounds[0] > p + _PROBE_MARGIN:
                    b = x
        return a, b

    def _probe(self, x: float) -> tuple[float, float] | None:
        """``at(x)`` once numpy is loaded, before that :meth:`interval`."""
        if np is None:
            return self.interval(x)
        value = self.at(x)
        return value, value

    def __call__(self, pairs: np.ndarray) -> None:
        """Barycentric sums at the points ``pairs[:, 0]``, written over ``pairs``.

        ``pairs`` holds one C-ordered row (x, 1) per point, and each row
        becomes the numerator and denominator of the second-form barycentric
        formula, whose quotient ``eval_many`` takes for the whole batch at
        once.  A block of up to ``_EVAL_CHUNK`` rows forms its point-by-node
        differences as one product with the (2, m) operand
        ``[1, ..., 1; -nodes]``: entry (i, k) is x_i*1 + 1*(-x_k).  Both
        products are exact, and BLAS runs with beta = 0, so whatever order,
        kernel or fused multiply-add it picks, the entry is one rounding of
        x_i - x_k: bit for bit the subtraction ``x_i - nodes``, +0.0 where
        x_i == x_k as there, at BLAS speed rather than in a broadcast loop m
        long.  The reciprocals and the product with ``weighted`` take the
        (b, m) result in the layout the subtraction gives, so every value has
        the bits of the subtraction form.  ``ndarray.dot`` runs the same BLAS
        calls as ``@`` with less overhead per call.  A point on a node
        divides by zero and reads NaN (inf/inf); ``eval_many`` calls this
        inside one ``np.errstate(divide="ignore", invalid="ignore")`` per
        batch and puts the node's value there.
        """
        _, _, weighted, shift = self._numpy()
        for start in range(0, len(pairs), _EVAL_CHUNK):
            block = pairs[start : start + _EVAL_CHUNK]
            r = block.dot(shift)
            np.reciprocal(r, out=r)
            r.dot(weighted, out=block)


def _chebyshev_series(seg: Polynomial, lo: Fraction, hi: Fraction) -> tuple[list[int], int]:
    """Integers c_j and den with seg = sum_j c_j T_j(u) / den on [lo, hi].

    With x = (lo + hi)/2 + (hi - lo)/2 * u and Q the common denominator of lo
    and hi, 4Q*x = P + H*(2u) for the integers P = 2Q(lo + hi), H = Q(hi - lo);
    S*x = P + H*(2u) after dividing S = 4Q, P and H by their gcd.  Writing
    seg = sum_k A_k x^k / D over integers, Horner's rule in the Chebyshev
    basis of u, c <- (P + H*2u)*c + A_k*S^(d-k), with 2u*T_0 = 2T_1 and
    2u*T_j = T_(j-1) + T_(j+1), gives every c_j an integer over
    den = D*S^d.  H = 1 on every segment for K = 2, 4 and 8, and the loop
    then skips that product.  The O(d^2) loop is the costliest part of a model.
    """
    A, D = seg.integer_form()
    A = A or (0,)
    d = len(A) - 1
    Q = math.lcm(lo.denominator, hi.denominator)
    P, H, S = int(2 * Q * (lo + hi)), int(Q * (hi - lo)), 4 * Q
    g = math.gcd(P, H, S)
    P, H, S = P // g, H // g, S // g
    c = [A[d]]
    scale = 1
    for k in range(d - 1, -1, -1):
        # term j of (P + H*2u)*c is P*c_j + H*(c_(j+1) + c_(j-1)), c_0 counted twice at j = 1
        below = [0, 2 * c[0], *c[1:]]
        c.append(0)
        if H == 1:
            c = [P * v + a + b for v, a, b in zip(c, [*c[1:], 0], below)]
        else:
            c = [P * v + H * (a + b) for v, a, b in zip(c, [*c[1:], 0], below)]
        scale *= S
        c[0] += A[k] * scale
    return c, D * scale


def _derivative_series(
    series: tuple[list[int], int], lo: Fraction, hi: Fraction
) -> tuple[list[int], int]:
    """The series of seg' on [lo, hi], in O(d), from the series (C, den) of seg.

    In u, sum_k C_k T_k differentiates to sum_k c'_k T_k, where
    e_(k-1) = e_(k+1) + 2k*C_k from k = d down, c'_0 = e_0/2 and c'_k = e_k
    (Mason & Handscomb, *Chebyshev Polynomials*, ch. 2), and d/dx is
    (2Q/H) d/du.  So seg' = sum_k [e_0, 2e_1, 2e_2, ...]_k * Q * T_k / (den*H):
    integers again, equal as rationals to :func:`_chebyshev_series` of seg',
    so the chop, which compares exact rationals, keeps the same terms.
    """
    C, den = series
    d = len(C) - 1
    Q = math.lcm(lo.denominator, hi.denominator)
    H = int(Q * (hi - lo))
    e = [0] * (d + 2)
    for k in range(d, 0, -1):
        e[k - 1] = e[k + 1] + 2 * k * C[k]
    twice = 2 * Q
    return [e[0] * Q, *(v * twice for v in e[1:d])], den * H


def _chebyshev_model(
    seg: Polynomial, lo: Fraction, hi: Fraction, series: tuple[list[int], int]
) -> _ChebModel:
    """Chop the exact Chebyshev ``series`` of ``seg`` on [lo, hi] and sample ``seg``.

    ``series`` is :func:`_chebyshev_series` of ``seg``, or, for a PDF
    segment, :func:`_derivative_series` of the CDF segment's series, which
    the CDF keeps: one O(d^2) conversion serves both models.  The two are
    the same rationals.  The model keeps the fewest n >= 1 terms of
    seg = sum_j c_j T_j(u) / den whose dropped tail sum_(k>=n) |c_k| / den
    is under ``_CHOP_BUDGET``, an exact comparison, and stores seg at the
    n + 1 Chebyshev-Lobatto points.  Each value is certified fixed-point
    Horner's where both ends of its error bound round to one double, and
    exact Horner's otherwise (:func:`_node_values`): either way the exact
    value correctly rounded, so F(K) = 1 reads exactly 1.0.  The points are
    rounded by the same operations, in the same order, as numpy's
    elementwise formula.  A value past the double range raises OverflowError.
    """
    c, den = series
    limit = _CHOP_BUDGET.numerator * den
    n, tail = len(c), 0
    while n > 1 and (tail + abs(c[n - 1])) * _CHOP_BUDGET.denominator < limit:
        n -= 1
        tail += abs(c[n])

    lo_f, hi_f = float(lo), float(hi)
    half = 0.5 * (hi_f - lo_f)
    mid = lo_f + half
    nodes = [mid + half * math.cos(math.pi * k / n) for k in range(n, -1, -1)]
    nodes[0] = lo_f
    nodes[-1] = hi_f
    weights = [-1.0 if k % 2 else 1.0 for k in range(n + 1)]
    weights[0] *= 0.5
    weights[-1] *= 0.5
    A, D = seg.integer_form()
    values = _node_values(A or (0,), D, nodes)
    return _ChebModel(nodes, values, weights, Fraction(tail, den))


def _node_values(A: Sequence[int], D: int, nodes: list[float]) -> list[float]:
    """sum_k A_k x^k / D at each node x, correctly rounded, for integers A and D > 0.

    Each node x = num/2^s takes one fixed-point Horner pass with F fractional
    bits: a_k = floor(A_k*2^F/D), made once per call, and
    acc <- floor(acc*num/2^s) + a_k.  Each of the 2d + 1 floors moves acc by
    less than one unit of 2^-F, scaled by at most max(1, |x|)^d on its way
    out, so 2^F times the exact value lies within E = 2(d+1)*max(1, |x|)^d
    (:func:`_horner_bound`) of acc, for either sign of x.  Rounding to
    nearest is monotone, so when the correctly rounded ``int / int`` ends
    (acc - E)/2^F and (acc + E)/2^F agree, that double is the exact value's
    (Ziv, ACM TOMS 17, 1991).  F puts ``_GUARD_BITS`` past a double's 53
    bits and the largest of the segment's bounds.  An interval that holds 0,
    ends that round apart and an end past the double range go to
    :func:`_exact_value`, so only exact Horner returns a zero, whose sign it
    knows, or raises OverflowError.  The SLE density is 0 at x = 1 and
    x = K; those nodes are integers, where exact Horner is cheap.
    """
    d = len(A) - 1
    bounds = [_horner_bound(d, x) for x in nodes]
    F = max(bounds).bit_length() + 53 + _GUARD_BITS
    a = [(c << F) // D for c in reversed(A)]
    unit = 1 << F
    values = []
    for x, E in zip(nodes, bounds):
        num, den = x.as_integer_ratio()
        s = den.bit_length() - 1
        acc = 0
        for c in a:
            acc = (acc * num >> s) + c
        try:
            low = (acc - E) / unit
            kept = abs(acc) > E and low == (acc + E) / unit
        except OverflowError:
            kept = False
        values.append(low if kept else _exact_value(A, D, x))
    return values


def _horner_bound(d: int, x: float) -> int:
    """An integer at least 2(d+1)*max(1, |x|)^d, from max(1, |x|) rounded up to 20 bits."""
    num, den = max(1.0, abs(x)).as_integer_ratio()
    cut = max(0, num.bit_length() - 20)
    top = -(-num >> cut)
    bound = 2 * (d + 1) * top**d
    z = (den.bit_length() - 1 - cut) * d
    return -(-bound >> z) if z >= 0 else bound << -z


def _exact_value(A: Sequence[int], D: int, x: float) -> float:
    """sum_k A_k x^k / D correctly rounded: Horner on integers, one ``int / int``.

    With x = num/2^s, the sum sum_k A_k num^k 2^(s(d-k)) is exact; the
    accumulator carries s*d bits that the fixed-point path avoids.  A value
    past the double range raises OverflowError.
    """
    num, x_den = x.as_integer_ratio()
    shift = x_den.bit_length() - 1
    acc = 0
    for k, a in enumerate(reversed(A)):
        acc = acc * num + (a << (shift * k))
    return acc / (D << (shift * (len(A) - 1)))


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
    joins the running segment, scaled by pref/den, over one common
    denominator, and each segment is reduced by one gcd pass.

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
    num, den_sum = (), 1  # the running segment, sum_k num[k] x^k / den_sum
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
        # block i is acc * scale: add it over lcm(den_sum, scale.denominator)
        scale = pref / den
        g = math.gcd(den_sum, scale.denominator)
        lift = scale.numerator * (den_sum // g)
        acc = [a * lift for a in acc]
        carry = scale.denominator // g
        for k, a in enumerate(num):
            acc[k] += a * carry
        seg = Polynomial.from_integers(acc, den_sum * carry)
        num, den_sum = seg.integer_form()
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


class SleDistribution(Frozen):
    """Exact SLE distribution: coefficient table plus assembled PDF and CDF.

    Construction re-derives nothing; it verifies everything: unit mass of the
    PDF, CDF boundary values, continuity at breakpoints, and coefficient-exact
    equality of the CDF derivative with the PDF on every segment.  The exact
    CDF levels at the breakpoints, which the checks compute, are kept as
    floats for :func:`quantile`.
    """

    __slots__ = ("table", "pdf", "cdf", "_break_xs", "_break_levels")

    def __init__(self, table: CoefficientTable, pdf: PiecewisePolynomial, cdf: PiecewisePolynomial):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "pdf", pdf)
        object.__setattr__(self, "cdf", cdf)
        self.__post_init__()

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
        # the check just made is what lets the PDF's float models use the CDF's series
        self.pdf._antiderivative = self.cdf
        levels = [0.0]
        for t in range(len(self.cdf.segments) - 1):
            b = self.cdf.breakpoints[t + 1]
            level = self.cdf.segments[t](b)
            if level != self.cdf.segments[t + 1](b):
                raise ConsistencyError(f"CDF jumps at breakpoint {b}")
            levels.append(float(level))
        levels.append(1.0)
        object.__setattr__(self, "_break_xs", tuple(float(b) for b in self.cdf.breakpoints))
        object.__setattr__(self, "_break_levels", tuple(levels))

    def __repr__(self) -> str:
        return f"SleDistribution(table={self.table!r}, pdf={self.pdf!r}, cdf={self.cdf!r})"

    @property
    def K(self) -> int:
        return self.table.K


def sle_distribution(table: CoefficientTable) -> SleDistribution:
    """Assemble and validate the full distribution for one coefficient table."""
    pdf = build_sle_pdf(table)
    return SleDistribution(table=table, pdf=pdf, cdf=build_sle_cdf(pdf))


def quantile(d: SleDistribution, p: float) -> float:
    """Inverse CDF by bisection to absolute x-tolerance 1e-12.

    Four things decide a midpoint, in turn: the breakpoint levels, beyond a
    breakpoint whose exact level lies more than ``_LEVEL_MARGIN`` from p;
    the node levels of the answer's segment, by the same rule; probes in the
    node gap left, beyond one whose value lies more than ``_PROBE_MARGIN``
    from p (:meth:`_ChebModel.narrow`); and evaluation for the midpoints
    left between.  The first three decide a midpoint only as evaluation
    would, so the steps, and the answer, are those of plain bisection.
    Before numpy is loaded, probes and steps read the model's rounding bound
    where it decides them (module docstring).
    """
    if math.isnan(p) or not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    K = float(d.K)
    if p == 0:
        return 1.0
    if p == 1:
        return K
    xs, levels = d._break_xs, d._break_levels
    # F(x) < p - margin at and below `below`, F(x) > p + margin at and above `above`
    i = bisect_left(levels, p - _LEVEL_MARGIN)
    j = bisect_right(levels, p + _LEVEL_MARGIN)
    below = xs[i - 1] if i else -math.inf
    above = xs[j] if j < len(xs) else math.inf
    if i == j:
        # p lies in segment i - 1, whose node values and probes narrow the bracket
        below, above = d.cdf._model(i - 1).narrow(p, below, above)
    lo, hi = 1.0, K
    for _ in range(_QUANTILE_MAX_ITER):
        if hi - lo <= _QUANTILE_XTOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and d.cdf._reads_below(mid, p)):
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
    """Exact E[X^m], the PDF's integral against x^m, on integers per segment."""
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    return d.pdf.integral(m)


def lambda1_moment(table: CoefficientTable, z: int) -> Fraction:
    """Exact E[lambda_max^(z-1)] from the coefficient table at integer z >= 1, on integers per row."""
    if z < 1:
        raise ValueError(f"transform order must be >= 1, got {z}")
    return moment_sum(table.entries, z)


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
    _load_numpy()
    # a set of Python floats, not np.union1d: np.unique imports numpy.ma on first use
    points = set(np.linspace(1.0, float(K), n).tolist())
    points.update(float(b) for b in _sle_breakpoints(K))
    return np.array(sorted(points))


def write_distribution_csv(d: SleDistribution, grid: np.ndarray, stream: IO[str]) -> None:
    """Rows of `x,pdf,cdf` in shortest round-trip decimal.

    PDF values are clipped at 0 and CDF values to [0, 1], the exact ranges,
    so the clips only remove evaluation error.
    """
    _load_numpy()
    pdf_vals = np.maximum(d.pdf.eval_many(grid), 0.0)
    cdf_vals = np.clip(d.cdf.eval_many(grid), 0.0, 1.0)
    stream.write("x,pdf,cdf\n")
    for x, f, F in zip(grid, pdf_vals, cdf_vals):
        stream.write(f"{float(x)!r},{float(f)!r},{float(F)!r}\n")

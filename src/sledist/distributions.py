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

A warm evaluation pays for little beyond that formula.  ``eval``, which
bisection calls, stays on Python floats up to the model's one-row product.
``eval_many`` groups a batch by segment with one radix sort of 16-bit
segment codes, and each model forms its point-by-node differences x - x_k as
one product of (x, 1) rows with ``[1; -nodes]``: both products are exact, so
BLAS rounds each entry once, to the bits of the subtraction, in place of a
broadcast loop as short as the node count.  The tests hold both paths, bit
for bit, to a reference dispatch that selects each segment's points by a mask
and subtracts.

``quantile`` bisects the float CDF, but the exact CDF levels at the
breakpoints, which construction computes for its checks, decide every step
they can.  Once per call it takes the last breakpoint whose level lies more
than 1e-9 below p and the first whose level lies more than 1e-9 above it.  A
midpoint at or below the first kind has F(mid) < p - 1e-9, so the float CDF,
certified within 1e-13, reads below p there and the step sets ``lo``; at or
above the second kind it sets ``hi``.  The margin is 1e4 times the certified
error, and covers the rounding of the levels and breakpoints to floats.  Only
midpoints between the two evaluate, so the steps, and the answer, are those
of plain bisection, and a cold call builds the float model of the answer's
segment alone, unless p lies within the margin of a level.

A step that evaluates asks only whether ``eval(mid) < p``.  Until numpy is
loaded, the segment's model answers on Python floats: it sums the
barycentric terms with ``math.fsum`` and bounds how far any BLAS summation
order could round from that sum (``_ChebModel.reads_below``).  An interval
wholly below p, or wholly at or above it, decides the step as the one-row
product would; otherwise the step runs that product, as ``eval`` does,
which loads numpy.  Once numpy is loaded, every step runs the product, the
cheaper of the two, so warm bisection costs what it did.  Either way the
answer is bit for bit that of bisection on ``eval``.  A step stays undecided when F(mid) lies within the
bound of p, which happens mostly at small alpha, where the density is small
and the last steps move F by little more than the bound.

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
from itertools import accumulate
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
# points per barycentric block: a block's point-by-node matrix stays in cache
_EVAL_CHUNK = 4096
_QUANTILE_XTOL = 1e-12
_QUANTILE_MAX_ITER = 200
# exact breakpoint levels this far from p decide bisection steps: 1e4 times the certified 1e-13
_LEVEL_MARGIN = 1e-9

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
        self._outside = (float(self.outside_low), float(self.outside_high))
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
        """Vectorized float evaluation; off the span the outside values, NaN rejected.

        The points are grouped by segment with one stable sort of their
        ``uint16`` segment codes, which numpy runs as a radix sort, and each
        segment's model evaluates its points in their original order, in
        blocks of ``_EVAL_CHUNK``, from one (x, 1) row per point (see
        :meth:`_ChebModel.__call__`).  NaN sorts past every edge, so only the
        group above the span is checked for it.  A one-point batch goes
        through :meth:`eval`.  ``backend`` is ignored: evaluation has a single
        numpy path.  The slot stays because the benchmark's tracing wrapper
        passes it positionally.
        """
        _load_numpy()
        arr = np.asarray(xs, dtype=np.float64)
        if arr.size == 1:
            return np.full(arr.shape, self.eval(arr.item()))
        flat = arr.ravel()
        if self._edge_array is None:
            self._edge_array = np.array(self._edges)
        # K*N <= MAX_KN with N >= K keeps K <= 44, so the codes fit 16 bits
        codes = np.searchsorted(self._edge_array, flat, side="right").astype(np.uint16)
        order = np.argsort(codes, kind="stable")
        counts = np.bincount(codes, minlength=len(self.segments) + 2).tolist()
        bounds = list(accumulate(counts, initial=0))
        pairs = np.empty((flat.size, 2))
        pairs[:, 0] = flat[order]
        pairs[:, 1] = 1.0
        above = bounds[-2]
        if above < flat.size and np.isnan(pairs[above:, 0]).any():
            raise ValueError("cannot evaluate at NaN")
        vals = np.empty(flat.shape)
        vals[: bounds[1]] = self._outside[0]
        vals[above:] = self._outside[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            for t, (a, b) in enumerate(zip(bounds[1:-2], bounds[2:-1])):
                if a < b:
                    self._model(t)(pairs[a:b], vals[a:b])
        # a point on a node reads NaN; its value is the node's, which eval returns
        for i in np.flatnonzero(np.isnan(vals)).tolist():
            vals[i] = self.eval(pairs[i, 0])
        out = np.empty(flat.shape)
        out[order] = vals
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
        where it can (:meth:`_ChebModel.reads_below`); an undecided step, and
        every step once numpy is loaded, compares :meth:`_ChebModel.at`.
        """
        model = self._model(bisect_right(self._edges, x) - 1)
        if np is None:
            below = model.reads_below(x, p)
            if below is not None:
                return below
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
    :meth:`reads_below` needs only the lists.
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
        r = x - nodes
        np.divide(1.0, r, out=r)
        sums = r[None] @ weighted
        return float(sums[0, 0] / sums[0, 1])

    def reads_below(self, x: float, p: float) -> bool | None:
        """Whether ``at(x) < p``, decided on Python floats; None when they cannot tell.

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
        rounding to nearest is monotone, so fl(S0/S1) lies in [lo, hi]: below
        p if hi < p, at or above it if lo >= p.  A denominator interval
        holding 0, or a non-finite endpoint, leaves the step undecided.
        """
        hit = self.at_node.get(x)
        if hit is not None:
            return hit < p
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
        if math.nextafter(max(corners), math.inf) < p:
            return True
        if math.nextafter(min(corners), -math.inf) >= p:
            return False
        return None

    def __call__(self, pairs: np.ndarray, out: np.ndarray) -> None:
        """Second-form barycentric formula at the points ``pairs[:, 0]``, into ``out``.

        ``pairs`` holds one C-ordered row (x, 1) per point.  A block of up to
        ``_EVAL_CHUNK`` rows forms its point-by-node differences as one
        product with the (2, m) operand ``[1, ..., 1; -nodes]``: entry (i, k)
        is x_i*1 + 1*(-x_k).  Both products are exact, and BLAS runs with
        beta = 0, so whatever order, kernel or fused multiply-add it picks,
        the entry is one rounding of x_i - x_k: bit for bit the subtraction
        ``x_i - nodes``, +0.0 where x_i == x_k as there, at BLAS speed rather
        than in a broadcast loop m long.  The reciprocals, the product with
        ``weighted`` and the quotient take the (b, m) result in the layout
        the subtraction gives, so every value has the bits of the
        subtraction form.  A point on a node divides by zero and reads NaN
        (inf/inf); ``eval_many`` calls this inside one
        ``np.errstate(divide="ignore", invalid="ignore")`` per batch and puts
        the node's value there.
        """
        _, _, weighted, shift = self._numpy()
        for start in range(0, len(pairs), _EVAL_CHUNK):
            r = pairs[start : start + _EVAL_CHUNK] @ shift
            np.divide(1.0, r, out=r)
            sums = r @ weighted
            np.divide(sums[:, 0], sums[:, 1], out=out[start : start + _EVAL_CHUNK])


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
    (so F(K) = 1 reads exactly 1.0).  The points are rounded by the same
    operations, in the same order, as numpy's elementwise formula.  A value
    past the double range raises OverflowError.
    """
    A, D = seg.integer_form()
    A = A or (0,)
    d = len(A) - 1
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
    half = 0.5 * (hi_f - lo_f)
    mid = lo_f + half
    nodes = [mid + half * math.cos(math.pi * k / n) for k in range(n, -1, -1)]
    nodes[0] = lo_f
    nodes[-1] = hi_f
    weights = [-1.0 if k % 2 else 1.0 for k in range(n + 1)]
    weights[0] *= 0.5
    weights[-1] *= 0.5
    values = []
    for x in nodes:
        # sum_k A_k num^k den^(d-k) by Horner, with den = 2^shift a power of two
        num, x_den = x.as_integer_ratio()
        shift = x_den.bit_length() - 1
        acc = 0
        for k, a in enumerate(reversed(A)):
            acc = acc * num + (a << (shift * k))
        values.append(acc / (D << (shift * d)))
    return _ChebModel(nodes, values, weights, Fraction(tail, den))


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

    A midpoint on the far side of a breakpoint whose exact level is more than
    ``_LEVEL_MARGIN`` from p is decided without evaluating; before numpy is
    loaded, the model's rounding bound decides the other steps it can
    (module docstring).
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

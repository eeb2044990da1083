"""Test oracles: the paper's closed-form coefficient tables for K = 2 and K = 3,
the exponential-polynomial ring with the moments L_a, the K = 4 determinant and
Khatri's density in it, a determinant by Fraction elimination, the moments
and the mass check summed one Fraction per term, the PDF and CDF assembly on
Fractions, the float models' arrays built with numpy, a float evaluation
dispatch with one mask per segment, and the serial Monte Carlo sampler.

sledist builds every table with the Hankel determinant engine on plain
integers; these printed formulas and ring expansions are an independent
derivation that the tests compare it against.  The mask dispatch, with one
barycentric block per 4096 points of a segment, gives the floats that warm
evaluation must reproduce bit for bit.  The serial sampler pins the Monte
Carlo stream that the pipelined ``sample_sle`` must reproduce bit for bit.
The Fraction elimination takes Khatri's constant term det[(N-K+i+j-2)!]
without the engine's fraction-free Bareiss, and Khatri's determinant of
incomplete gamma functions, expanded in the ring, gives the density's table
at any K without the engine's Hankel determinant.
The Fraction moment sums give the exact values that the integer sums of
``sle_moment``, ``lambda1_moment`` and ``CoefficientTable.normalization``
must equal, and the Fraction PDF and CDF assembly gives the segments that the
integer-form assembly must equal.  The numpy model construction gives the
arrays that the models, built on Python floats, must reproduce bit for bit.
"""

import math
import operator
from fractions import Fraction
from itertools import accumulate
from math import factorial as _fact
from typing import Mapping

import numpy as np

from sledist.coefficients import CoefficientTable, _full_rectangle, index_upper
from sledist.exact import Polynomial, RationalLike

from polyops import is_zero, mul, neg, scale, shift_powers


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


# ---------------------------------------------------------------------------
# the exponential-polynomial ring


class ExpPolySum:
    """Finite sum ``sum_m exp(-m*x) * P_m(x)`` with polynomial coefficients.

    ``terms`` maps the nonnegative integer decay rate ``m`` to the polynomial
    ``P_m``; identically-zero polynomials are never stored.  The set is closed
    under addition and multiplication (``exp(-a*x)P * exp(-b*x)Q =
    exp(-(a+b)*x) PQ``), which makes it the natural ring for the determinant
    expansions feeding the coefficient tables.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Polynomial] | None = None):
        clean: dict[int, Polynomial] = {}
        if terms:
            for m, p in terms.items():
                if m < 0:
                    raise ValueError(f"negative decay rate {m}")
                if not isinstance(p, Polynomial):
                    p = Polynomial(p)
                if not is_zero(p):
                    clean[int(m)] = p
        self._terms = clean

    @property
    def terms(self) -> dict[int, Polynomial]:
        return dict(self._terms)

    def entries(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero coefficient of ``x^j exp(-m*x)`` at ``(m, j)``, as a table's entries are keyed."""
        return {(m, j): c for m, p in self._terms.items() for j, c in enumerate(p.coefficients) if c}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExpPolySum):
            return self._terms == other._terms
        return NotImplemented

    def __add__(self, other: "ExpPolySum") -> "ExpPolySum":
        if not isinstance(other, ExpPolySum):
            return NotImplemented
        out = dict(self._terms)
        for m, p in other._terms.items():
            q = out.get(m)
            out[m] = p if q is None else q + p
        return ExpPolySum(out)

    def __neg__(self) -> "ExpPolySum":
        return ExpPolySum({m: neg(p) for m, p in self._terms.items()})

    def __sub__(self, other: "ExpPolySum") -> "ExpPolySum":
        if not isinstance(other, ExpPolySum):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "ExpPolySum") -> "ExpPolySum":
        if not isinstance(other, ExpPolySum):
            return NotImplemented
        out: dict[int, Polynomial] = {}
        for m1, p1 in self._terms.items():
            for m2, p2 in other._terms.items():
                m = m1 + m2
                prod = mul(p1, p2)
                q = out.get(m)
                out[m] = prod if q is None else q + prod
        return ExpPolySum(out)

    def scale(self, factor: RationalLike) -> "ExpPolySum":
        return ExpPolySum({m: scale(p, factor) for m, p in self._terms.items()})

    def __repr__(self) -> str:
        if not self._terms:
            return "ExpPolySum(0)"
        parts = [f"e^(-{m}x)*({p!r})" for m, p in sorted(self._terms.items())]
        return "ExpPolySum(" + " + ".join(parts) + ")"


def as_exppoly(entry: list[list[int]]) -> ExpPolySum:
    """The engine's integer coefficient lists, indexed by decay rate, as an ExpPolySum."""
    return ExpPolySum({m: Polynomial(p) for m, p in enumerate(entry)})


def l_moment_oracle(a: int) -> ExpPolySum:
    """L_a(x) = int_0^x t^a (x-t)^2 e^(-t) dt, through the lower incomplete gamma function.

    With gamma(n+1, x) = int_0^x t^n e^(-t) dt = n! (1 - e^(-x) sum_{k<=n} x^k/k!),
    expanding (x-t)^2 gives L_a = x^2 gamma(a+1, x) - 2x gamma(a+2, x) + gamma(a+3, x),
    a derivation apart from the engine's closed form.
    """

    def gamma(n: int) -> ExpPolySum:  # gamma(n+1, x)
        tail = [-Fraction(_fact(n), _fact(k)) for k in range(n + 1)]
        return ExpPolySum({0: Polynomial([_fact(n)]), 1: Polynomial(tail)})

    def x_power(k: int, c: int) -> ExpPolySum:
        return ExpPolySum({0: Polynomial([0] * k + [c])})

    return x_power(2, 1) * gamma(a) - x_power(1, 2) * gamma(a + 1) + gamma(a + 2)


def five_product_k4(N: int) -> ExpPolySum:
    """The K = 4 Hankel determinant det[L_{N-4+r+s}], r, s = 0..2, expanded into five products."""
    L = {a: l_moment_oracle(a) for a in range(N - 4, N + 1)}
    return (
        (L[N - 1] * L[N - 2] * L[N - 3]).scale(2)
        + L[N] * L[N - 2] * L[N - 4]
        - L[N - 3] * L[N - 3] * L[N]
        - L[N - 1] * L[N - 1] * L[N - 4]
        - L[N - 2] * L[N - 2] * L[N - 2]
    )


def _lower_gamma(n: int) -> ExpPolySum:
    """gamma(n, x) = int_0^x t^(n-1) e^(-t) dt = (n-1)! - e^(-x) sum_{k<n} (n-1)!/k! x^k."""
    f = _fact(n - 1)
    return ExpPolySum({0: Polynomial([f]), 1: Polynomial([-(f // _fact(k)) for k in range(n)])})


def khatri_density(K: int, N: int) -> ExpPolySum:
    """The density of lambda_max as G'(x), from Khatri's CDF of the largest eigenvalue.

    Khatri (1964): G(x) = det[gamma(N-K+i+j-1, x)]_{i,j=1..K} / prod_i (N-i)!(K-i)!.
    The determinant is expanded along its rows, each minor memoized by its set
    of free columns (2^K minors), and differentiated term by term,
    d/dx e^(-mx) p = e^(-mx) (p' - m p).  Nothing here comes from the engine.
    """
    gammas = [[_lower_gamma(N - K + i + j - 1) for j in range(1, K + 1)] for i in range(1, K + 1)]
    minors = {0: ExpPolySum({0: Polynomial([1])})}

    def minor(free: int) -> ExpPolySum:
        # the rows below K - |free| on the columns in the bit set `free`
        if free not in minors:
            row = gammas[K - free.bit_count()]
            total, sign = ExpPolySum(), 1
            for c in range(K):
                if free >> c & 1:
                    term = row[c] * minor(free & ~(1 << c))
                    total = total + term if sign > 0 else total - term
                    sign = -sign
            minors[free] = total
        return minors[free]

    G = minor((1 << K) - 1)
    norm = math.prod(_fact(N - i) * _fact(K - i) for i in range(1, K + 1))
    density = ExpPolySum({m: p.derivative() + scale(p, -m) for m, p in G.terms.items()})
    return density.scale(Fraction(1, norm))


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination on Fractions, swapping in a lower row at a zero pivot."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1 :]:
            f = row[k] / m[k][k]
            for c in range(k + 1, len(m)):
                row[c] -= f * m[k][c]
    return det


# ---------------------------------------------------------------------------
# moments and the mass check, one Fraction per table entry or coefficient


def normalization_reference(table: CoefficientTable) -> Fraction:
    """Exact total mass: sum over entries of c * j! / i^(j+1)."""
    top = max(j for _, j in table.entries)
    fact = list(accumulate(range(1, top + 1), operator.mul, initial=1))  # j! at j
    total = Fraction(0)
    for (i, j), c in table.entries.items():
        if c:
            total += c * fact[j] / Fraction(i) ** (j + 1)
    return total


def sle_moment_reference(d, m: int) -> Fraction:
    """Exact E[X^m] by per-segment antiderivative telescoping."""
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    total = Fraction(0)
    for t, seg in enumerate(d.pdf.segments):
        anti = shift_powers(seg, m).antiderivative()
        total += anti(d.pdf.breakpoints[t + 1]) - anti(d.pdf.breakpoints[t])
    return total


def lambda1_moment_reference(table: CoefficientTable, z: int) -> Fraction:
    """Exact E[lambda_max^(z-1)] from the coefficient table at integer z >= 1."""
    if z < 1:
        raise ValueError(f"transform order must be >= 1, got {z}")
    total = Fraction(0)
    for (i, j), c in table.entries.items():
        if c:
            total += c * math.factorial(z + j - 1) / Fraction(i) ** (z + j)
    return total


# ---------------------------------------------------------------------------
# the PDF and CDF assembly on Fractions
#
# build_sle_pdf and build_sle_cdf as they ran before segments were assembled
# on integer forms, with the Polynomial sums, antiderivatives and evaluations
# spelled out on Fraction coefficient tuples.  Each returns one tuple per
# segment, from x = 1 up.


def _fraction_sum(a, b) -> tuple[Fraction, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _fraction_value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sle_pdf_fractions(table: CoefficientTable) -> list[tuple[Fraction, ...]]:
    K, N = table.K, table.N
    KN = K * N
    pref = Fraction(math.factorial(KN - 1), K ** (KN - 1))
    weights: dict[int, list[tuple[int, Fraction]]] = {i: [] for i in range(1, K + 1)}
    for (i, j), c in table.entries.items():
        if not c:
            continue
        e = KN - j - 2
        weights[i].append((j, c / math.factorial(e)))
    segments = []
    seg = ()
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
        seg = _fraction_sum(seg, [scale * a for a in acc])
        segments.append(seg)
    segments.reverse()
    return segments


def sle_cdf_fractions(K: int, pdf: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    bps = [Fraction(K, i) for i in range(K, 0, -1)]
    level = Fraction(0)
    segments = []
    for t, seg in enumerate(pdf):
        anti = (Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(seg))
        anti = _fraction_sum(anti, (level - _fraction_value(anti, bps[t]),))
        segments.append(anti)
        level = _fraction_value(anti, bps[t + 1])
    return segments


# ---------------------------------------------------------------------------
# float models built on numpy

_CHOP_BUDGET = Fraction(2.5e-14)


def chebyshev_model_reference(seg: Polynomial, lo: Fraction, hi: Fraction):
    """``nodes``, ``values``, ``weighted`` and the exact ``tail`` of a segment's float model.

    The segment's own integer Chebyshev conversion and the chop, followed by
    the array construction the float models used before they were built on
    Python floats: nodes by ``np.cos``, weights by ``np.where``, and every
    value by exact Horner on integers, one correctly rounded ``int / int``.
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
        c = [P * v + a + b for v, a, b in zip(c + [0], hc[1:] + [0, 0], [0, 2 * hc[0]] + hc[1:])]
        scale *= 4 * Q
        c[0] += A[k] * scale
    limit = _CHOP_BUDGET.numerator * D * scale
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
        num, x_den = x.as_integer_ratio()
        shift = x_den.bit_length() - 1
        acc = 0
        for k, a in enumerate(reversed(A)):
            acc = acc * num + (a << (shift * k))
        values[t] = acc / (D << (shift * d))
    weighted = np.stack([weights * values, weights], axis=1)
    return nodes, values, weighted, Fraction(tail, D * scale)


# ---------------------------------------------------------------------------
# float evaluation with one mask per segment

_CHUNK = 4096  # points per barycentric block


def _barycentric_reference(model, xs: np.ndarray) -> np.ndarray:
    """Second-form barycentric formula on one segment's model; on a node, that node's value."""
    out = np.empty(xs.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, xs.size, _CHUNK):
            r = xs[start : start + _CHUNK, None] - model.nodes
            np.divide(1.0, r, out=r)
            sums = r @ model.weighted
            out[start : start + _CHUNK] = sums[:, 0] / sums[:, 1]
    # exactly on a node the sums are inf/inf; no other point gives NaN
    hit = np.isnan(out)
    if hit.any():
        out[hit] = model.values[np.searchsorted(model.nodes, xs[hit])]
    return out


def eval_many_reference(pw, xs) -> np.ndarray:
    """``PiecewisePolynomial.eval_many`` by masks: below, above, and one per segment."""
    arr = np.asarray(xs, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("cannot evaluate at NaN")
    bps = np.array([float(b) for b in pw.breakpoints])
    flat = arr.ravel()
    out = np.empty(flat.shape)
    below = flat < bps[0]
    above = flat > bps[-1]
    out[below] = float(pw.outside_low)
    out[above] = float(pw.outside_high)
    inside = ~(below | above)
    pts = flat[inside]
    idx = np.searchsorted(bps, pts, side="right") - 1
    np.clip(idx, 0, len(pw.segments) - 1, out=idx)
    vals = np.empty(pts.shape)
    for t in np.unique(idx):
        sel = idx == t
        vals[sel] = _barycentric_reference(pw._model(int(t)), pts[sel])
    out[inside] = vals
    return out.reshape(arr.shape)


def eval_reference(pw, x: float) -> float:
    """``PiecewisePolynomial.eval`` as a one-point batch of :func:`eval_many_reference`."""
    return float(eval_many_reference(pw, np.array([float(x)]))[0])


def quantile_reference(d, p: float, xtol: float = 1e-12) -> float:
    """``quantile``'s bisection for 0 < p < 1, on :func:`eval_reference`."""
    lo, hi = 1.0, float(d.K)
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if eval_reference(d.cdf, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the serial Monte Carlo sampler

_SAMPLE_CHUNK = 4096  # matrices per draw: part of the stream definition


def _sle_statistic_reference(Z: np.ndarray) -> np.ndarray:
    """The SLE statistic of a batch in one Gram product and one eigensolve."""
    K = Z.shape[1]
    R = Z @ Z.conj().swapaxes(-1, -2)
    trace = np.einsum("sii->s", R).real
    evals = np.linalg.eigvalsh(R)
    return K * evals[:, -1] / trace


def _draw(rng: np.random.Generator, K: int, N: int, count: int) -> np.ndarray:
    out = np.empty(count)
    done = 0
    while done < count:
        m = min(_SAMPLE_CHUNK, count - done)
        Z = (rng.standard_normal((m, K, N)) + 1j * rng.standard_normal((m, K, N))) * math.sqrt(0.5)
        out[done : done + m] = _sle_statistic_reference(Z)
        done += m
    return out


def sample_sle_reference(config) -> np.ndarray:
    """Sorted statistics of ``sample_sle(config)``, drawn and solved one chunk after another.

    This is the sampler's stream definition, kept serial: partition p draws
    from Philox seeded by the p-th child of SeedSequence(seed), in chunks of
    4096 matrices, all real parts of a chunk before all its imaginary parts.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.partitions)
    base, extra = divmod(config.samples, config.partitions)
    parts = []
    for p, child in enumerate(children):
        count = base + (1 if p < extra else 0)
        if count == 0:
            continue
        rng = np.random.Generator(np.random.Philox(child))
        parts.append(_draw(rng, config.K, config.N, count))
    return np.sort(np.concatenate(parts))

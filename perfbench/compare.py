"""Compare program outputs with the reference outputs recorded from the seed commit.

Exact outputs must match byte for byte: rational moments and the identity
check lines, coefficient JSON, the exact-mean line of `validate`, every CSV
header and grid abscissa, and every exit code.

Float outputs are compared within a tolerance derived from the program's
certified evaluation error EVAL_ERROR = 1e-13 (absolute, per CDF or PDF
value).  The reference and the candidate each lie within EVAL_ERROR of the
exact value, so:

* a curve value, p-value or KS distance may differ by 2 * EVAL_ERROR;
* a quantile or threshold t is where a CDF within EVAL_ERROR of the exact one
  crosses p.  Each side lies within EVAL_ERROR / f(t) of the exact crossing
  plus half the bisection bracket QUANTILE_XTOL = 1e-12, so the two may
  differ by QUANTILE_XTOL + 2 * EVAL_ERROR / f(t).  The PDF f is taken at the
  reference threshold and halved to cover its variation across that window.

Each bound also allows 4 ulps of the reference for the final rounding.
Sample statistics of `validate` (empirical mean, gap, 3*stderr) come from a
bit-reproducible Monte Carlo stream and may differ only by eigensolver
rounding: SAMPLE_RTOL = 1e-12 relative to the empirical mean.
"""

from __future__ import annotations

import math
import re

import numpy as np

EVAL_ERROR = 1e-13
QUANTILE_XTOL = 1e-12
SAMPLE_RTOL = 1e-12


def _ulps(ref):
    return 4 * np.spacing(np.abs(ref))


def values_close(got, ref) -> bool:
    """Curve values, p-values and KS distances: each side certified within EVAL_ERROR."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return False
    return bool(np.all(np.abs(got - ref) <= 2 * EVAL_ERROR + _ulps(ref)))


def thresholds_close(got, ref, pdf_at_ref) -> bool:
    """Quantiles and thresholds: QUANTILE_XTOL + 2 * EVAL_ERROR / (f(t) / 2), plus 4 ulps."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    tol = QUANTILE_XTOL + 4 * EVAL_ERROR / np.asarray(pdf_at_ref, dtype=np.float64) + _ulps(ref)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= tol))


def _floats(text: str) -> list[float] | None:
    try:
        return [float(x) for x in text.split()]
    except ValueError:
        return None


def _compare_scalar(got: str, ref: dict) -> bool:
    g, r = _floats(got), _floats(ref["stdout"])
    return g is not None and len(g) == 1 and thresholds_close(g, r, [ref["pdf_at_result"]])


def _compare_curve(got: str, ref: dict) -> bool:
    g_lines, r_lines = got.splitlines(), ref["stdout"].splitlines()
    if len(g_lines) != len(r_lines) or not g_lines or g_lines[0] != r_lines[0]:
        return False
    try:
        g = np.array([[float(v) for v in line.split(",")] for line in g_lines[1:]])
        r = np.array([[float(v) for v in line.split(",")] for line in r_lines[1:]])
    except ValueError:
        return False
    if g.shape != r.shape or g.ndim != 2 or g.shape[1] != 3:
        return False
    return bool(np.array_equal(g[:, 0], r[:, 0])) and values_close(g[:, 1:], r[:, 1:])


_KS = re.compile(r"KS distance: (\S+) \(threshold (\S+)\): (pass|FAIL)$")
_EMP = re.compile(r"empirical mean: (\S+) \(\|gap\| (\S+) vs 3\*stderr (\S+)\): (pass|FAIL)$")


def _compare_validate(got: str, ref: dict) -> bool:
    g, r = got.splitlines(), ref["stdout"].splitlines()
    if len(g) != 4 or len(r) != 4 or g[0] != r[0] or g[2] != r[2]:
        return False
    gk, rk = _KS.match(g[1]), _KS.match(r[1])
    ge, re_ = _EMP.match(g[3]), _EMP.match(r[3])
    if not (gk and rk and ge and re_):
        return False
    if gk.group(2, 3) != rk.group(2, 3) or ge.group(4) != re_.group(4):
        return False
    if not values_close(float(gk.group(1)), float(rk.group(1))):
        return False
    scale = abs(float(re_.group(1)))
    return all(
        math.isclose(float(a), float(b), rel_tol=0, abs_tol=SAMPLE_RTOL * scale)
        for a, b in zip(ge.group(1, 2, 3), re_.group(1, 2, 3))
    )


_COMPARATORS = {
    "quantile": _compare_scalar,
    "threshold": _compare_scalar,
    "pdf": _compare_curve,
    "cdf": _compare_curve,
    "validate": _compare_validate,
}


def cli_output_matches(argv: tuple[str, ...], returncode: int, stdout: str, ref: dict) -> bool:
    """True when one CLI request reproduced its reference exit code and output."""
    if returncode != ref["returncode"]:
        return False
    compare = _COMPARATORS.get(argv[0])
    if compare is None or not ref["stdout"]:
        return stdout == ref["stdout"]
    return compare(stdout, ref)

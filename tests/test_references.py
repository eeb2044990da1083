"""Replay of the benchmark's recorded outputs: one request per request class of
the two exact cold workloads, run through the CLI in process and held to its
entry in `perfbench/references/` by the benchmark's own comparison.  A change
that would lower the benchmark's `ok_frac` fails here first.

Every threshold and quantile request of those pools is also replayed as a
cold process runs it, with bisection starting on the rounding bound, and the
requests that load numpy are counted.  The warm `pvalue_stream` pool is
replayed in process: every pooled point in batches of each size the workload
sends, and every pooled alpha, whose model evaluations are counted.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sledist import distributions, quantile, sle_distribution, threshold_for_false_alarm
from sledist.cli import main

from conftest import cached_dist, cached_table
from oracles import quantile_reference

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from compare import cli_output_matches, thresholds_close, values_close  # noqa: E402
from workloads import EXACT_LARGE_K, EXACT_LONG_N, PVALUE_STREAM  # noqa: E402

# the last variant of each class: the smallest alpha or the largest p, the largest N
REQUESTS = [(w.name, c.pool()[-1]) for w in (EXACT_LONG_N, EXACT_LARGE_K) for c in w.classes]
# every bisection request of both pools
BISECTIONS = [
    (w.name, argv)
    for w in (EXACT_LONG_N, EXACT_LARGE_K)
    for argv in w.pool()
    if argv[0] in ("threshold", "quantile")
]


def _replay(workload: str, argv: tuple[str, ...]) -> str:
    refs = json.loads((PERFBENCH / "references" / f"{workload}.json").read_text())["requests"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert cli_output_matches(argv, code, out.getvalue(), refs[" ".join(argv)]), err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("workload, argv", REQUESTS, ids=[" ".join(a) for _, a in REQUESTS])
def test_cli_reproduces_the_benchmark_reference(workload, argv):
    _replay(workload, argv)


@pytest.mark.parametrize("workload, argv", BISECTIONS, ids=[" ".join(a) for _, a in BISECTIONS])
def test_bisection_on_the_rounding_bound_reproduces_the_reference(workload, argv, monkeypatch):
    # the test session has loaded numpy, which sends every step to BLAS; a cold
    # process starts without it, and so does this replay
    monkeypatch.setattr(distributions, "np", None)
    answer = float(_replay(workload, argv))
    K, N, value = int(argv[2]), int(argv[4]), float(argv[6])
    p = value if argv[0] == "quantile" else 1.0 - value
    assert answer == quantile_reference(cached_dist(K, N), p)


@pytest.mark.parametrize("K, N", PVALUE_STREAM.shapes)
def test_warm_pool_reproduces_the_pvalue_stream_reference(K, N):
    refs = json.loads((PERFBENCH / "references" / "pvalue_stream.json").read_text())["dists"]
    ref = next(r for r in refs if (r["K"], r["N"]) == (K, N))
    d = cached_dist(K, N)
    points, cdf = np.array(ref["points"]), np.array(ref["cdf"])
    for size in PVALUE_STREAM.batch_sizes:
        for start in range(0, len(points), size):
            batch = slice(start, start + size)
            assert values_close(d.cdf.eval_many(points[batch]), cdf[batch]), (size, start)
    thresholds = [threshold_for_false_alarm(d, alpha) for alpha in ref["alphas"]]
    assert thresholds_close(thresholds, ref["thresholds"], ref["pdf_at_threshold"])


@pytest.mark.parametrize("workload, loading", [("exact_long_n", 10), ("exact_large_k", 6)])
def test_cold_bisection_loads_numpy_in_the_same_requests(workload, loading, monkeypatch):
    # 10 of the 36 and 6 of the 9 bisection requests load numpy, as they did
    # before probes narrowed the bracket: a probe never calls the BLAS product
    load = distributions._load_numpy
    loaded = []
    for _, argv in (b for b in BISECTIONS if b[0] == workload):
        K, N, value = int(argv[2]), int(argv[4]), float(argv[6])
        d = sle_distribution(cached_table(K, N))
        calls = []
        monkeypatch.setattr(distributions, "np", None)
        monkeypatch.setattr(distributions, "_load_numpy", lambda: calls.append(1) or load())
        (quantile if argv[0] == "quantile" else threshold_for_false_alarm)(d, value)
        loaded.append(bool(calls))
    assert sum(loaded) == loading


@pytest.mark.parametrize("K, N", PVALUE_STREAM.shapes)
def test_warm_thresholds_take_few_model_evaluations(K, N, monkeypatch):
    # plain bisection takes 41 per threshold; node values and probes leave about 13
    refs = json.loads((PERFBENCH / "references" / "pvalue_stream.json").read_text())["dists"]
    alphas = next(r for r in refs if (r["K"], r["N"]) == (K, N))["alphas"]
    d = cached_dist(K, N)
    distributions._load_numpy()
    at = distributions._ChebModel.at
    calls = []
    monkeypatch.setattr(
        distributions._ChebModel, "at", lambda model, x: calls.append(x) or at(model, x)
    )
    for alpha in alphas:
        threshold_for_false_alarm(d, alpha)
    assert len(calls) / len(alphas) <= 20

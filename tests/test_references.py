"""Replay of the benchmark's recorded outputs: one request per request class of
the two exact cold workloads, run through the CLI in process and held to its
entry in `perfbench/references/` by the benchmark's own comparison.  A change
that would lower the benchmark's `ok_frac` fails here first.

Every threshold and quantile request of those pools is also replayed as a
cold process runs it, with bisection starting on the rounding bound.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sledist import distributions
from sledist.cli import main

from conftest import cached_dist
from oracles import quantile_reference

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from compare import cli_output_matches  # noqa: E402
from workloads import EXACT_LARGE_K, EXACT_LONG_N  # noqa: E402

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

"""Replay of the benchmark's recorded outputs: one request per request class of
the two exact cold workloads, run through the CLI in process and held to its
entry in `perfbench/references/` by the benchmark's own comparison.  A change
that would lower the benchmark's `ok_frac` fails here first.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sledist.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from compare import cli_output_matches  # noqa: E402
from workloads import EXACT_LARGE_K, EXACT_LONG_N  # noqa: E402

# the last variant of each class: the smallest alpha or the largest p, the largest N
REQUESTS = [(w.name, c.pool()[-1]) for w in (EXACT_LONG_N, EXACT_LARGE_K) for c in w.classes]


@pytest.mark.parametrize("workload, argv", REQUESTS, ids=[" ".join(a) for _, a in REQUESTS])
def test_cli_reproduces_the_benchmark_reference(workload, argv):
    refs = json.loads((PERFBENCH / "references" / f"{workload}.json").read_text())["requests"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert cli_output_matches(argv, code, out.getvalue(), refs[" ".join(argv)]), err.getvalue()

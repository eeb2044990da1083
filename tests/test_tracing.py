"""The benchmark's tracer patches sledist's functions by name, after `import sledist.cli`.

The CLI imports the sampler only inside `validate`, so these runs check that
the patched names still reach the calls, through `perfbench/traced_cli.py`
exactly as a traced benchmark request runs it.  The self-validation span
wraps `SleDistribution.__post_init__`, which construction must call.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_MARKER = "PERFBENCH-SPANS "


def _traced_span_names(argv: list[str]) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(start_ns), "--", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    # 2,000 draws may fail the default KS threshold: exit 1 is a verdict, not a crash
    assert run.returncode in (0, 1), run.stderr
    last = run.stderr.splitlines()[-1]
    assert last.startswith(SPANS_MARKER)
    spans = json.loads(last[len(SPANS_MARKER):])
    assert not any(span[6] for span in spans), "a traced call raised or the CLI crashed"
    return {span[3] for span in spans}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["moments", "--K", "2", "--N", "10"], {"distributions.check", "distributions.moments"}),
        (
            ["validate", "--K", "2", "--N", "10", "--samples", "2000"],
            {
                "distributions.check",
                "distributions.moments",
                "montecarlo.sample",
                "montecarlo.ks",
                "backends.eigvalsh",
            },
        ),
    ],
)
def test_tracer_spans_reach_lazily_imported_functions(argv, expected):
    names = _traced_span_names(argv)
    assert expected <= names, sorted(names)

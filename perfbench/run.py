"""The sledist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above perfbench/, and
sledist is imported from its src/.  The seed picks every request from the
workload's fixed pool, and every output is checked against the reference
recorded from the seed commit (references/, written by make_references.py).

Stdout ends with two lines: a JSON object with the run's metadata and the
figures that belong to one workload only, then the result
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
whose metrics are the `end_to_end` ones of BENCHMARK.json with --trace 0
and the `per_layer` ones with --trace 1.  A traced run also writes its spans
to .perfbench_out/.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from runners import Budget, Run, run_cold, run_pvalue, use_checkout_sources
from workloads import WORKLOADS, ColdWorkload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# requests start with limits that end by then, so a run exits within 180 s
RUN_LIMIT_S = 150.0

# layers that pvalue_stream runs only while setting up: their traced figures
# are the one set-up's, the other layers' are per request
SETUP_PHASE = (
    "setup.import_s",
    "coefficients.table_s",
    "coefficients.table_entries",
    "coefficients.coeff_bits_max",
    "distributions.pdf_build_s",
    "distributions.cdf_build_s",
    "distributions.check_s",
    "distributions.segment_degree_max",
    "distributions.moments_s",
    "distributions.model_build_s",
)


def end_to_end(run: Run) -> dict[str, float]:
    lat = np.asarray(run.plain.latencies)
    return {
        "setup_s": statistics.median(run.setup),
        "request_p50_s": float(np.percentile(lat, 50)),
        "requests_per_s": lat.size / float(lat.sum()),
        "ok_frac": sum(run.plain.ok) / lat.size,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    keys = run.breakdowns[0].keys()
    out = {}
    for key in keys:
        values = [b[key] for b in run.breakdowns]
        if key.endswith("_max"):
            out[key] = max(values)
        elif key.endswith(".errors"):
            out[key] = sum(values)
        else:
            out[key] = float(np.mean(values))
    if run.setup_breakdown is not None:
        for key in SETUP_PHASE:
            out[key] = run.setup_breakdown[key]
        for key in out:
            if key.endswith(".errors"):
                out[key] += run.setup_breakdown[key]
    out["montecarlo.rng_s"] = out["montecarlo.sample_s"] - out["montecarlo.statistic_s"]
    out["trace.request_s"] = out.pop("request_s")
    out["trace.overhead_s"] = float(
        np.median(run.traced.latencies) - np.median(run.plain.latencies)
    )
    return out


def detail(run: Run, workload) -> dict:
    """Figures that exist on one workload only, and the request counts behind the metrics."""
    reqs = run.plain
    out = {
        "requests": len(reqs.latencies),
        "failed_frac": 1 - sum(reqs.ok) / len(reqs.ok),
        "timeouts": reqs.timeouts,
    }
    if not isinstance(workload, ColdWorkload):
        # a cold run has too few requests for a tail percentile
        out["request_p99_s"] = {"value": float(np.percentile(reqs.latencies, 99)), "unit": "s"}
    if reqs.units_seconds:
        name = "mc_draws_per_s" if isinstance(workload, ColdWorkload) else "cdf_points_per_s"
        out[name] = {"value": reqs.units / reqs.units_seconds, "unit": "1/s"}
    return out


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    try:
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.restype = ctypes.c_int
    return get()


def metadata() -> dict:
    use_checkout_sources(ROOT)
    import mpmath
    from sledist.backends import get_backend

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "backend": get_backend().name,
    }


def load_references(name: str) -> dict:
    with open(HERE / "references" / f"{name}.json") as stream:
        refs = json.load(stream)
    return refs if name == "pvalue_stream" else refs["requests"]


def measure(workload, refs: dict, seed: int, seconds: float, trace: bool, declared: dict):
    """One run; returns the result object (the last line of output) and the Run behind it."""
    runner = run_cold if isinstance(workload, ColdWorkload) else run_pvalue
    run = runner(workload, refs, ROOT, seed, seconds, trace, Budget(time.monotonic() + RUN_LIMIT_S))
    values = per_layer(run) if trace else end_to_end(run)
    wanted = declared["per_layer" if trace else "end_to_end"]
    attempted = len(run.plain.ok) + len(run.traced.ok)
    failed = attempted - sum(run.plain.ok) - sum(run.traced.ok)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sledist" / "__init__.py").is_file():
        print(f"error: no sledist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as stream:
        declared = json.load(stream)
    workload = WORKLOADS[args.workload]
    result, run = measure(workload, load_references(args.workload), args.seed, args.seconds,
                          bool(args.trace), declared)
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as stream:
            json.dump({"fields": ["id", "parent", "request", "name", "start_ns", "end_ns",
                                  "error", "facts"], "spans": run.spans}, stream)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "metadata": metadata(),
                      "detail": detail(run, workload)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

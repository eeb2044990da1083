"""Record the outputs every workload's requests are checked against.

    python3 perfbench/make_references.py

Run it on the commit whose outputs are the reference (the seed commit of the
benchmark); it runs every request in every workload's pool, one at a time and
exactly as the benchmark does, and writes references/<workload>.json.  For a
quantile or threshold it also stores the PDF at the result, which sets that
request's tolerance (compare.py).

pvalue_stream's point pool is drawn here, once, from a fixed seed, and its
alpha pool is a geometric grid; both are stored with their CDF values and
thresholds.  The points are statistics drawn from the law itself
(`sample_sle` under the null hypothesis a detector tests), so the batches hit
the segments in the proportions a detector's p-value queries do.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from probe import set_up
from runners import child_env, execute, use_checkout_sources
from spans import now_ns
from workloads import WORKLOADS, ColdWorkload, PvalueWorkload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_SEED = 20120203
LIMIT_S = 600.0


def cold_references(workload: ColdWorkload) -> dict:
    env = child_env(ROOT)
    requests = {}
    for argv in workload.pool():
        cmd = [sys.executable, "-m", "sledist.cli", *argv]
        seconds, code, out, _ = execute(cmd, env, ROOT, LIMIT_S, now_ns())
        if code is None:
            raise RuntimeError(f"{' '.join(argv)} timed out")
        print(f"{seconds:7.2f} s  exit {code}  {' '.join(argv)}", file=sys.stderr)
        requests[" ".join(argv)] = {"argv": list(argv), "returncode": code, "stdout": out}
    use_checkout_sources(ROOT)
    from sledist import coefficient_table, sle_distribution

    dists = {}
    for r in requests.values():
        if r["argv"][0] in ("quantile", "threshold") and r["returncode"] == 0:
            K, N = int(r["argv"][2]), int(r["argv"][4])
            if (K, N) not in dists:
                dists[K, N] = sle_distribution(coefficient_table(K, N))
            r["pdf_at_result"] = dists[K, N].pdf.eval(float(r["stdout"]))
    return {"requests": requests}


def pvalue_references(workload: PvalueWorkload) -> dict:
    use_checkout_sources(ROOT)
    from sledist import SimulationConfig, sample_sle, threshold_for_false_alarm

    alphas = np.geomspace(*workload.alpha_range, workload.pool_alphas)
    out = []
    for (K, N), d in zip(workload.shapes, set_up(workload.shapes)):
        config = SimulationConfig(K=K, N=N, samples=workload.pool_points, seed=POOL_SEED)
        points = sample_sle(config).values
        thresholds = np.array([threshold_for_false_alarm(d, float(a)) for a in alphas])
        out.append({
            "K": K,
            "N": N,
            "points": points.tolist(),
            "cdf": d.cdf.eval_many(points).tolist(),
            "alphas": alphas.tolist(),
            "thresholds": thresholds.tolist(),
            "pdf_at_threshold": d.pdf.eval_many(thresholds).tolist(),
        })
    return {"dists": out}


def main() -> int:
    for name, workload in WORKLOADS.items():
        if isinstance(workload, ColdWorkload):
            refs = cold_references(workload)
        else:
            refs = pvalue_references(workload)
        refs = {"workload": name, **refs}
        with open(HERE / "references" / f"{name}.json", "w") as stream:
            json.dump(refs, stream, indent=1, sort_keys=True)
            stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

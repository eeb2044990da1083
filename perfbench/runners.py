"""Closed-loop runners: one client, the next request sent when the last one returns.

Nothing runs concurrently, so each request has the machine to itself (at most
one child process at a time, plus its BLAS threads, which default to nproc).
A run repeats whole rounds of its workload until `seconds` have passed.  A
request that exceeds its time limit is recorded as a timeout and counts as
failed; it stays in the run with the limit as its latency.

With tracing on, every request is run twice, first untraced and then traced,
so the run also gives the tracing overhead on the same inputs.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from compare import cli_output_matches, thresholds_close, values_close
from probe import set_up
from spans import Instrumentation, Recorder, now_ns, request_breakdown
from traced_cli import SPANS_MARKER
from workloads import ColdWorkload, PvalueWorkload

HERE = Path(__file__).resolve().parent
COLD_REQUEST_LIMIT_S = 60.0
PVALUE_REQUEST_LIMIT_S = 5.0
SETUP_LIMIT_S = 60.0
STATISTIC_CHUNK = 4096  # matrices per sle_statistic call, as sample_sle draws them


@dataclass
class Budget:
    """Caps each time limit so that the whole run ends by `deadline` (time.monotonic)."""

    deadline: float

    def limit(self, most: float) -> float:
        return min(most, max(1.0, self.deadline - time.monotonic()))


class Rounds:
    """Whole rounds until `seconds` of run time have passed, set-up probes not counted."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.count = 0
        self._started = time.monotonic()
        self._probing = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self._started - self._probing

    def another(self) -> bool:
        return self.count == 0 or self.elapsed() < self.seconds

    def probe(self, run: Run, what: list[str], env: dict, root: Path, budget: Budget) -> None:
        t0 = time.monotonic()
        run.setup.append(probe_setup(what, env, root, budget))
        self._probing += time.monotonic() - t0


@dataclass
class Requests:
    latencies: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    timeouts: int = 0
    units: float = 0.0  # Monte Carlo draws or CDF points asked for
    units_seconds: float = 0.0  # latency of the requests that asked for them

    def add(self, seconds: float, ok: bool, timeout: bool = False, units: int = 0) -> None:
        self.latencies.append(seconds)
        self.ok.append(ok)
        self.timeouts += timeout
        if units:
            self.units += units
            self.units_seconds += seconds


@dataclass
class Run:
    setup: list[float] = field(default_factory=list)
    plain: Requests = field(default_factory=Requests)
    traced: Requests = field(default_factory=Requests)
    breakdowns: list[dict] = field(default_factory=list)
    setup_breakdown: dict | None = None
    spans: list[list] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def child_env(root: Path) -> dict[str, str]:
    """The environment of every child: sledist comes from the checkout's src/."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def use_checkout_sources(root: Path) -> None:
    """Make this process import sledist from the checkout's src/, as the children do."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def execute(cmd: list[str], env: dict, root: Path, limit: float, start_ns: int):
    """Run one child to completion or to `limit`; returns (seconds, exit code or None, stdout, stderr)."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=limit)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return (now_ns() - start_ns) * 1e-9, code, out.decode(), err.decode()


def probe_setup(what: list[str], env: dict, root: Path, budget: Budget) -> float:
    """Set-up seconds measured by probe.py in a fresh process; checks sledist came from src/."""
    cmd = [sys.executable, str(HERE / "probe.py"), *what]
    _, code, out, err = execute(cmd, env, root, budget.limit(SETUP_LIMIT_S), now_ns())
    if code != 0:
        raise RuntimeError(f"set-up probe {what} failed (exit {code}):\n{err}")
    report = json.loads(out.splitlines()[-1])
    if not Path(report["sledist"]).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"sledist was imported from {report['sledist']}, not from {root / 'src'}")
    return report["seconds"]


def _argv_value(argv: tuple[str, ...], flag: str) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else 0


def run_cold(workload: ColdWorkload, refs: dict, root: Path, seed: int, seconds: float,
             trace: bool, budget: Budget) -> Run:
    env = child_env(root)
    run = Run()
    rng = np.random.default_rng(seed)
    rounds = Rounds(seconds)
    while rounds.another():
        for argv in workload.round(rng):
            ref = refs[" ".join(argv)]
            if not trace:
                rounds.probe(run, ["cold"], env, root, budget)
            _cold_request(run, argv, ref, env, root, budget, traced=False)
            if trace:
                _cold_request(run, argv, ref, env, root, budget, traced=True)
        rounds.count += 1
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return run


def _cold_request(run: Run, argv, ref, env, root, budget, traced: bool) -> None:
    start = now_ns()
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(start), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "sledist.cli", *argv]
    seconds, code, out, err = execute(cmd, env, root, budget.limit(COLD_REQUEST_LIMIT_S), start)
    ok = code is not None and cli_output_matches(argv, code, out, ref)
    if not ok:
        print(f"failed: {' '.join(argv)} (exit {code}){' traced' if traced else ''}\n{err[-2000:]}",
              file=sys.stderr)
    draws = _argv_value(argv, "--samples")
    (run.traced if traced else run.plain).add(seconds, ok, timeout=code is None, units=draws)
    last = err.rstrip().rpartition("\n")[2]
    if traced and last.startswith(SPANS_MARKER):
        spans = json.loads(last[len(SPANS_MARKER):])
        request_id = f"r{len(run.breakdowns)}"
        for span in spans:
            span[2] = request_id
        breakdown = request_breakdown(spans)
        if draws:
            use_checkout_sources(root)
            breakdown["montecarlo.statistic_s"] = statistic_seconds(
                _argv_value(argv, "--K"), _argv_value(argv, "--N"), draws)
        run.breakdowns.append(breakdown)
        run.spans.extend(spans)


def statistic_seconds(K: int, N: int, samples: int) -> float:
    """Seconds sle_statistic takes on `samples` Gaussian matrices, drawn beforehand in chunks."""
    from sledist.montecarlo import sle_statistic

    rng = np.random.default_rng(0)
    total = 0
    done = 0
    while done < samples:
        m = min(STATISTIC_CHUNK, samples - done)
        Z = (rng.standard_normal((m, K, N)) + 1j * rng.standard_normal((m, K, N))) * np.sqrt(0.5)
        t0 = now_ns()
        sle_statistic(Z)
        total += now_ns() - t0
        done += m
    return total * 1e-9


# ---------------------------------------------------------------------------
# pvalue_stream


class _RequestTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _RequestTimeout


def run_pvalue(workload: PvalueWorkload, refs: dict, root: Path, seed: int, seconds: float,
               trace: bool, budget: Budget) -> Run:
    run = Run()
    env = child_env(root)
    shapes = [f"{K},{N}" for K, N in workload.shapes]
    use_checkout_sources(root)
    rec = Recorder()
    instrumentation = None
    if trace:
        rec.request = "setup"
        span = rec.open("request")
        inner = rec.open("setup.import")
        import sledist  # noqa: F401

        rec.close(inner)
        instrumentation = Instrumentation(rec)
        instrumentation.install()
        dists = set_up(workload.shapes)
        rec.close(span)
        run.setup_breakdown = request_breakdown(rec.spans)
    else:
        dists = set_up(workload.shapes)
    import sledist.distributions as sd

    data = [
        {key: np.asarray(ref[key], dtype=np.float64) for key in
         ("points", "cdf", "alphas", "thresholds", "pdf_at_threshold")}
        for ref in refs["dists"]
    ]
    rng = np.random.default_rng(seed)
    previous = signal.signal(signal.SIGALRM, _alarm)
    # set-up probes at the start, middle and end of the loop see the same machine as the queries
    probes_due = [] if trace else [0.0, seconds / 2]
    rounds = Rounds(seconds)
    try:
        while rounds.another():
            if probes_due and rounds.elapsed() >= probes_due[0]:
                probes_due.pop(0)
                rounds.probe(run, shapes, env, root, budget)
            requests = workload.round(rng, rounds.count)
            for traced in (False, True) if trace else (False,):
                if instrumentation is not None:
                    (instrumentation.install if traced else instrumentation.remove)()
                for req in requests:
                    _pvalue_request(run, req, dists[req.dist], data[req.dist], sd, rec, budget, traced)
            rounds.count += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
        if instrumentation is not None:
            instrumentation.remove()
    if not trace:
        rounds.probe(run, shapes, env, root, budget)
    if trace:
        by_request: dict[str, list] = {}
        for span in rec.spans:
            by_request.setdefault(span[2], []).append(span)
        run.breakdowns = [request_breakdown(s) for rid, s in by_request.items() if rid != "setup"]
        run.spans = rec.spans
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def _pvalue_request(run: Run, req, dist, data, sd, rec: Recorder, budget: Budget, traced: bool):
    if req.kind == "eval":
        xs = data["points"][req.index]

        def call():
            return dist.cdf.eval_many(xs)
    else:
        alpha = float(data["alphas"][req.index])

        def call():
            return sd.threshold_for_false_alarm(dist, alpha)

    limit = budget.limit(PVALUE_REQUEST_LIMIT_S)
    span = None
    out, timeout = None, False
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        if traced:
            rec.request = f"r{len(run.traced.latencies)}"
            span = rec.open("request")
        t0 = time.perf_counter()
        out = call()
        t1 = time.perf_counter()
    except _RequestTimeout:
        t1, timeout = t0 + limit, True
    except Exception:  # a failed request is recorded and the run goes on
        t1 = time.perf_counter()
        traceback.print_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if span is not None:
            rec.close(span, error=out is None)
    if out is None:
        ok = False
    elif req.kind == "eval":
        ok = values_close(out, data["cdf"][req.index])
    else:
        ok = thresholds_close(out, data["thresholds"][req.index], data["pdf_at_threshold"][req.index])
    units = int(np.size(req.index)) if req.kind == "eval" else 0
    (run.traced if traced else run.plain).add(t1 - t0, ok, timeout=timeout, units=units)

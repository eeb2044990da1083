"""Spans recorded from outside the program, around calls to sledist's public functions.

`Instrumentation(recorder).install()` replaces the functions below, in every
sledist module that holds them, with wrappers that record a span per call;
`remove()` puts the originals back.  The program's code is not changed.

    span name                   wraps
    setup.import                the import of sledist (recorded by the caller)
    coefficients.table          coefficient_table
    distributions.pdf_build     build_sle_pdf
    distributions.cdf_build     build_sle_cdf
    distributions.check         SleDistribution.__post_init__ (self-validation)
    distributions.moments       sle_moment, lambda1_moment, trace_moment
    distributions.quantile      quantile (threshold_for_false_alarm calls it)
    distributions.eval          PiecewisePolynomial.eval_many (eval calls it)
    montecarlo.sample           sample_sle
    montecarlo.ks               ks_distance
    backends.eigvalsh           Backend.eigvalsh_batch of every backend get_backend returns
    cli.output                  table_to_json, write_distribution_csv, print in sledist.cli

A span is [id, parent, request, name, start_ns, end_ns, error, facts]; times
come from CLOCK_MONOTONIC, which is shared by every process on the host, so a
traced child's spans line up with its parent's request span.

Float-model build cost has no public function of its own.  When an
evaluation is the first on its piecewise polynomial, or adds to that
polynomial's per-segment model cache, the wrapper runs the same call again in
a second `distributions.eval` span; the first call's duration minus the
repeat's is the model build.
"""

from __future__ import annotations

import dataclasses
import sys
import time

_CLOCK = time.CLOCK_MONOTONIC


def now_ns() -> int:
    return time.clock_gettime_ns(_CLOCK)


class Recorder:
    """Spans kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.request: str | None = None
        self._stack: list[int] = []

    def open(self, name: str, start_ns: int | None = None) -> list:
        span = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            self.request,
            name,
            now_ns() if start_ns is None else start_ns,
            None,
            False,
            None,
        ]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list, error: bool = False, **facts) -> None:
        span[5] = now_ns()
        span[6] = error
        if facts:
            span[7] = facts
        self._stack.pop()


def _traced(rec: Recorder, name: str, fn, facts=None):
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
        finally:
            rec.close(span, error=not ok)
        if facts is not None:
            span[7] = facts(out)
        return out

    return wrapper


def _table_facts(table):
    entries = table.entries
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in entries.values()),
        default=0,
    )
    return {"entries": len(entries), "bits": bits}


def _degree_facts(pw):
    return {"degree": max((s.degree for s in pw.segments), default=0)}


def _draw_facts(sample):
    return {"draws": len(sample)}


def _traced_eval_many(rec: Recorder, fn):
    import numpy as np

    seen: set[int] = set()

    def eval_many(self, xs, backend=None):
        xs = np.asarray(xs, dtype=np.float64)
        models = getattr(self, "_models", None)
        before = len(models) if models is not None else 0
        span = rec.open("distributions.eval")
        ok = False
        try:
            out = fn(self, xs, backend)
            ok = True
        finally:
            rec.close(span, error=not ok, points=int(xs.size))
        built = id(self) not in seen or (models is not None and len(models) > before)
        if built:
            seen.add(id(self))
            repeat = rec.open("distributions.eval")
            ok = False
            try:
                fn(self, xs, backend)
                ok = True
            finally:
                rec.close(repeat, error=not ok, repeat_of=span[0])
        return out

    return eval_many


_ABSENT = object()


class Instrumentation:
    """Wrappers for sledist's public layer functions, installed and removed as a unit."""

    def __init__(self, rec: Recorder):
        import sledist.cli
        from sledist import coefficients as co
        from sledist import distributions as di
        from sledist import montecarlo as mc
        from sledist.backends import get_backend

        modules = [m for name, m in sys.modules.items() if name == "sledist" or name.startswith("sledist.")]
        self._patches: list[tuple[object, str, object, object]] = []

        def everywhere(original, replacement):
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, replacement))

        for fn, name, facts in (
            (co.coefficient_table, "coefficients.table", _table_facts),
            (di.build_sle_pdf, "distributions.pdf_build", _degree_facts),
            (di.build_sle_cdf, "distributions.cdf_build", _degree_facts),
            (di.sle_moment, "distributions.moments", None),
            (di.lambda1_moment, "distributions.moments", None),
            (di.trace_moment, "distributions.moments", None),
            (di.quantile, "distributions.quantile", None),
            (mc.sample_sle, "montecarlo.sample", _draw_facts),
            (mc.ks_distance, "montecarlo.ks", None),
            (co.table_to_json, "cli.output", None),
            (di.write_distribution_csv, "cli.output", None),
        ):
            everywhere(fn, _traced(rec, name, fn, facts))

        wrapped_backends = {}

        def traced_get_backend(name=None):
            be = get_backend(name)
            if be.name not in wrapped_backends:
                wrapped_backends[be.name] = dataclasses.replace(
                    be, eigvalsh_batch=_traced(rec, "backends.eigvalsh", be.eigvalsh_batch)
                )
            return wrapped_backends[be.name]

        everywhere(get_backend, traced_get_backend)
        check = di.SleDistribution.__post_init__
        self._patches.append(
            (di.SleDistribution, "__post_init__", check, _traced(rec, "distributions.check", check))
        )
        eval_many = di.PiecewisePolynomial.eval_many
        self._patches.append(
            (di.PiecewisePolynomial, "eval_many", eval_many, _traced_eval_many(rec, eval_many))
        )
        # print is a builtin, so a module global of that name shadows it for sledist.cli only
        self._patches.append((sledist.cli, "print", _ABSENT, _traced(rec, "cli.output", print)))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            if original is _ABSENT:
                vars(owner).pop(attr, None)
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-request layer times from the spans

LAYERS = ("setup", "coefficients", "distributions", "montecarlo", "backends", "cli")

_SELF_METRIC = {
    "setup.import": "setup.import_s",
    "coefficients.table": "coefficients.table_s",
    "distributions.pdf_build": "distributions.pdf_build_s",
    "distributions.cdf_build": "distributions.cdf_build_s",
    "distributions.check": "distributions.check_s",
    "distributions.moments": "distributions.moments_s",
    "distributions.quantile": "distributions.quantile_s",
    "distributions.eval": "distributions.eval_s",
    "montecarlo.ks": "montecarlo.ks_s",
    "backends.eigvalsh": "backends.eigvalsh_s",
    "cli.output": "cli.output_s",
    "request": "cli.other_s",
}


def request_breakdown(spans: list[list]) -> dict[str, float]:
    """Layer self times (s), counts and sizes of one request, whose root span is named "request".

    A span's self time is its duration minus its children's.  Every `_s`
    value is a self time except `montecarlo.sample_s`, which is the whole
    sampling call, eigensolves included, so that `montecarlo.rng_s` =
    `montecarlo.sample_s` - `montecarlo.statistic_s`.  The self times, less
    `backends.eigvalsh_s` (which sample_s holds), add up to the request's
    duration.
    """
    out = dict.fromkeys(_SELF_METRIC.values(), 0.0)
    out.update({
        "distributions.model_build_s": 0.0,
        "montecarlo.sample_s": 0.0,
        "coefficients.table_entries": 0,
        "coefficients.coeff_bits_max": 0,
        "distributions.segment_degree_max": 0,
        "distributions.eval_calls": 0,
        "distributions.eval_points": 0,
        "distributions.quantile_calls": 0,
        "montecarlo.draws": 0,
        "montecarlo.statistic_s": 0.0,
        "request_s": 0.0,
    })
    out.update({f"{layer}.errors": 0 for layer in LAYERS})
    duration = {s[0]: (s[5] - s[4]) * 1e-9 for s in spans}
    child_time = dict.fromkeys(duration, 0.0)
    for s in spans:
        if s[1] in child_time:
            child_time[s[1]] += duration[s[0]]
    for s in spans:
        sid, name, facts = s[0], s[3], s[7] or {}
        own = duration[sid] - child_time[sid]
        if name == "request":
            out["request_s"] += duration[sid]
        if name == "montecarlo.sample":
            out["montecarlo.sample_s"] += duration[sid]
            out["montecarlo.draws"] += facts.get("draws", 0)
        else:
            out[_SELF_METRIC[name]] += own
        if s[6]:
            layer = "cli" if name == "request" else name.split(".")[0]
            out[f"{layer}.errors"] += 1
        if name == "coefficients.table":
            out["coefficients.table_entries"] += facts.get("entries", 0)
            out["coefficients.coeff_bits_max"] = max(out["coefficients.coeff_bits_max"], facts.get("bits", 0))
        elif name in ("distributions.pdf_build", "distributions.cdf_build"):
            out["distributions.segment_degree_max"] = max(
                out["distributions.segment_degree_max"], facts.get("degree", 0))
        elif name == "distributions.quantile":
            out["distributions.quantile_calls"] += 1
        elif name == "distributions.eval":
            first = facts.get("repeat_of")
            if first is None:
                out["distributions.eval_calls"] += 1
                out["distributions.eval_points"] += facts.get("points", 0)
            else:
                build = max(0.0, duration[first] - duration[sid])
                out["distributions.model_build_s"] += build
                out["distributions.eval_s"] -= build
    return out

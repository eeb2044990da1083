"""Tests of the benchmark itself, on tiny sizes:  python3 -m pytest perfbench

Each test records its references from the current sources first, as
make_references.py does, so it checks the harness rather than the program.
"""

from __future__ import annotations

import json
import math

import pytest

from compare import EVAL_ERROR, cli_output_matches, thresholds_close, values_close
from make_references import cold_references, pvalue_references
from run import ROOT, measure
from workloads import WORKLOADS, ColdWorkload, PvalueWorkload, RequestClass

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "exact_long_n": ColdWorkload("exact_long_n", (
        RequestClass("threshold", ((4, 4),), (("--alpha", "0.01"),)),
        RequestClass("quantile", ((4, 5),), (("--p", "0.5"),)),
        RequestClass("cdf", ((4, 4),), (("--grid", "16"),)),
        RequestClass("moments", ((4, 5),)),
    )),
    "exact_large_k": ColdWorkload("exact_large_k", (
        RequestClass("threshold", ((5, 5),), (("--alpha", "0.1"),)),
        RequestClass("cdf", ((5, 5),), (("--grid", "16"),)),
    )),
    "mc_validate": ColdWorkload("mc_validate", (
        RequestClass("validate", ((2, 3),), (("--samples", "2000", "--seed", "1"),)),
    )),
    "pvalue_stream": PvalueWorkload("pvalue_stream", shapes=((3, 4), (4, 5)),
                                    batch_sizes=(1, 16), pool_points=32, pool_alphas=4,
                                    alpha_range=(1e-3, 1e-1)),
}


def _references(workload):
    if isinstance(workload, ColdWorkload):
        return cold_references(workload)["requests"]
    return pvalue_references(workload)


@pytest.fixture(scope="module")
def references():
    return {name: _references(w) for name, w in TINY.items()}


def test_tiny_workloads_mirror_the_real_ones():
    assert set(TINY) == set(WORKLOADS)
    for name, tiny in TINY.items():
        assert type(tiny) is type(WORKLOADS[name])
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_reports_every_metric_with_its_unit(references, name, trace):
    result, run = measure(TINY[name], references[name], seed=7, seconds=0, trace=bool(trace),
                          declared=DECLARED)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    json.dumps(result)


def test_cold_layer_self_times_add_up_to_the_request(references):
    _, run = measure(TINY["mc_validate"], references["mc_validate"], seed=1, seconds=0,
                     trace=True, declared=DECLARED)
    _, exact = measure(TINY["exact_long_n"], references["exact_long_n"], seed=1, seconds=0,
                       trace=True, declared=DECLARED)
    for b in run.breakdowns + exact.breakdowns:
        layers = sum(v for k, v in b.items()
                     if k.endswith("_s") and k not in ("request_s", "backends.eigvalsh_s",
                                                       "montecarlo.statistic_s"))
        assert layers == pytest.approx(b["request_s"], rel=1e-9, abs=1e-9)
        assert b["setup.import_s"] > 0 and b["cli.other_s"] > 0
    sampled = run.breakdowns[0]
    assert sampled["montecarlo.draws"] == 2000
    assert sampled["backends.eigvalsh_s"] > 0 and sampled["montecarlo.statistic_s"] > 0
    assert any(b["distributions.model_build_s"] > 0 for b in exact.breakdowns)


def _corrupt_first_float(text: str) -> str:
    for token in text.replace(",", " ").split():
        try:
            value = float(token)
        except ValueError:
            continue
        if value:
            return text.replace(token, repr(value * (1 + 1e-6)), 1)
    raise AssertionError("no float to corrupt")


@pytest.mark.parametrize("command", ["threshold", "moments", "cdf"])
def test_corrupted_cli_reference_counts_as_failed(references, command):
    workload = ColdWorkload("exact_long_n", tuple(
        c for c in TINY["exact_long_n"].classes if c.command == command))
    refs = {k: dict(v) for k, v in references["exact_long_n"].items()}
    for ref in refs.values():
        ref["stdout"] = _corrupt_first_float(ref["stdout"])
    result, _ = measure(workload, refs, seed=3, seconds=0, trace=False, declared=DECLARED)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["ok_frac"]["value"] == 0


def test_corrupted_pvalue_reference_counts_as_failed(references):
    refs = json.loads(json.dumps(references["pvalue_stream"]))
    for d in refs["dists"]:
        d["cdf"] = [v + 1e-9 for v in d["cdf"]]
    result, run = measure(TINY["pvalue_stream"], refs, seed=3, seconds=0, trace=False,
                          declared=DECLARED)
    # every CDF batch fails; the thresholds still match
    assert result["failed"] == 4 and result["attempted"] == 5
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 / 5)


def test_float_tolerances_follow_the_certified_error():
    ref = 0.5
    assert values_close(ref + 2 * EVAL_ERROR, ref)
    assert not values_close(ref + 3 * EVAL_ERROR, ref)
    # a threshold may move by the bisection bracket plus 2*EVAL_ERROR/(pdf/2)
    assert thresholds_close(2.0 + 1.0e-12 + 3.9e-13, 2.0, 1.0)
    assert not thresholds_close(2.0 + 1.0e-12 + 4.1e-13, 2.0, 1.0)
    assert not cli_output_matches(("moments",), 1, "", {"returncode": 0, "stdout": ""})

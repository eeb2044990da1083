"""The four benchmark workloads: their request pools and the seeded rounds drawn from them.

A workload runs in rounds.  Every round holds one request from each of the
workload's request classes, in an order the seed shuffles; within a class the
seed picks the variant (N inside a narrow band, alpha, p, Monte Carlo seed,
query points).  All classes appear equally often in every run, whatever the
seed, so a run's median and tail latency come from the same mix of work on
every seed and only the inputs change.  README.md says why each workload
exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHAS = ("0.1", "0.01", "0.001")
PROBABILITIES = ("0.5", "0.9", "0.99")
MC_SEEDS = tuple(str(s) for s in range(1, 9))
MC_SAMPLES = "100000"


@dataclass(frozen=True)
class RequestClass:
    """One kind of cold CLI request: a subcommand over a few (K, N) and parameter choices."""

    command: str
    shapes: tuple[tuple[int, int], ...]
    params: tuple[tuple[str, ...], ...] = ((),)

    def pool(self) -> list[tuple[str, ...]]:
        return [self._argv(shape, p) for shape in self.shapes for p in self.params]

    def draw(self, rng: np.random.Generator) -> tuple[str, ...]:
        shape = self.shapes[int(rng.integers(len(self.shapes)))]
        return self._argv(shape, self.params[int(rng.integers(len(self.params)))])

    def _argv(self, shape: tuple[int, int], params: tuple[str, ...]) -> tuple[str, ...]:
        K, N = shape
        return (self.command, "--K", str(K), "--N", str(N), *params)


@dataclass(frozen=True)
class ColdWorkload:
    """Each request is one `python -m sledist.cli` process, started after the last one exits."""

    name: str
    classes: tuple[RequestClass, ...]

    def pool(self) -> list[tuple[str, ...]]:
        return [argv for c in self.classes for argv in c.pool()]

    def round(self, rng: np.random.Generator) -> list[tuple[str, ...]]:
        drawn = [c.draw(rng) for c in self.classes]
        return [drawn[i] for i in rng.permutation(len(drawn))]


def _flag(name: str, values: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    return tuple((name, v) for v in values)


def _k4(lo: int, hi: int) -> tuple[tuple[int, int], ...]:
    return tuple((4, n) for n in range(lo, hi + 1))


# Each command takes one low and one high band of N, so every round spans
# N = 40..64 and every command meets both ends of it.
EXACT_LONG_N = ColdWorkload(
    "exact_long_n",
    (
        RequestClass("threshold", _k4(40, 42), _flag("--alpha", ALPHAS)),
        RequestClass("quantile", _k4(43, 45), _flag("--p", PROBABILITIES)),
        RequestClass("cdf", _k4(46, 48)),
        RequestClass("moments", _k4(49, 51)),
        RequestClass("threshold", _k4(52, 54), _flag("--alpha", ALPHAS)),
        RequestClass("quantile", _k4(55, 57), _flag("--p", PROBABILITIES)),
        RequestClass("cdf", _k4(58, 60)),
        RequestClass("moments", _k4(61, 64)),
    ),
)

# Threshold and cdf alternate over the six shapes; both commands on every
# shape would double the round to ~40 s, too long for the run budget.
EXACT_LARGE_K = ColdWorkload(
    "exact_large_k",
    (
        RequestClass("threshold", ((8, 8),), _flag("--alpha", ALPHAS)),
        RequestClass("cdf", ((8, 9),)),
        RequestClass("threshold", ((8, 10),), _flag("--alpha", ALPHAS)),
        RequestClass("cdf", ((8, 11),)),
        RequestClass("threshold", ((9, 9),), _flag("--alpha", ALPHAS)),
        RequestClass("cdf", ((9, 10),)),
    ),
)

MC_VALIDATE = ColdWorkload(
    "mc_validate",
    tuple(
        RequestClass(
            "validate",
            (shape,),
            tuple(("--samples", MC_SAMPLES, "--seed", s, "--partitions", "1") for s in MC_SEEDS),
        )
        for shape in ((2, 10), (4, 10), (6, 6), (3, 40))
    ),
)


@dataclass(frozen=True)
class PvalueRequest:
    """One warm library call: a CDF batch at pooled points, or a threshold at a pooled alpha."""

    kind: str  # "eval" or "threshold"
    dist: int  # index into PvalueWorkload.shapes
    index: np.ndarray | int  # point indices for "eval", alpha index for "threshold"


@dataclass(frozen=True)
class PvalueWorkload:
    """The library in one process: two warm distributions answering p-value and threshold queries.

    A round holds a CDF batch of every size on both distributions plus one
    threshold, whose distribution alternates from round to round.  The point
    and alpha pools are fixed (they live in the reference file); the seed
    picks which points and which alpha each request uses.
    """

    name: str
    shapes: tuple[tuple[int, int], ...]
    batch_sizes: tuple[int, ...]
    pool_points: int
    pool_alphas: int
    alpha_range: tuple[float, float]

    def round(self, rng: np.random.Generator, number: int) -> list[PvalueRequest]:
        reqs = [
            PvalueRequest("eval", d, rng.choice(self.pool_points, size=b, replace=False))
            for d in range(len(self.shapes))
            for b in self.batch_sizes
        ]
        reqs.append(
            PvalueRequest("threshold", number % len(self.shapes), int(rng.integers(self.pool_alphas)))
        )
        return [reqs[i] for i in rng.permutation(len(reqs))]


PVALUE_STREAM = PvalueWorkload(
    "pvalue_stream",
    shapes=((4, 40), (8, 8)),
    batch_sizes=(1, 16, 256, 4096),
    pool_points=4096,
    pool_alphas=64,
    alpha_range=(1e-4, 1e-1),
)

WORKLOADS = {w.name: w for w in (EXACT_LONG_N, EXACT_LARGE_K, MC_VALIDATE, PVALUE_STREAM)}

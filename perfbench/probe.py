"""Time one set-up in a fresh process.

    python3 perfbench/probe.py cold         import sledist.cli, as every cold request does
    python3 perfbench/probe.py K,N [K,N...]  build these distributions, ready to serve

Prints one JSON line: the seconds from before the first sledist import to the
end of the set-up, and the path sledist was imported from.  This module
imports nothing but the standard library before the clock starts, so the
timed window holds only sledist's own imports and builds.
"""

import json
import sys
import time


def set_up(shapes) -> list:
    """Build each distribution and evaluate its CDF once, at one point per segment.

    That first evaluation builds every segment's float model, so the first
    query is served warm.
    """
    from sledist import coefficient_table, sle_distribution

    dists = []
    for K, N in shapes:
        d = sle_distribution(coefficient_table(K, N))
        bps = [float(b) for b in d.cdf.breakpoints]
        d.cdf.eval_many([0.5 * (lo + hi) for lo, hi in zip(bps, bps[1:])])
        dists.append(d)
    return dists


def main() -> int:
    t0 = time.perf_counter()
    if sys.argv[1] == "cold":
        import sledist.cli  # noqa: F401
    else:
        set_up([tuple(int(v) for v in arg.split(",")) for arg in sys.argv[1:]])
    seconds = time.perf_counter() - t0
    import sledist

    print(json.dumps({"seconds": seconds, "sledist": sledist.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

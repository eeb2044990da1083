"""Khatri's determinant against the engine's coefficient tables at larger K.

    python bench/khatri_tables.py

For each shape, the density G'(x) of Khatri's CDF of the largest eigenvalue
(``tests/oracles.py``, ``khatri_density``) is compared with
``coefficient_table(K, N)``, nonzero entry for nonzero entry, as Fractions.
Prints one line per shape with both build times, and exits 1 on any mismatch.
The tier-1 acceptance test covers K <= 7; this script takes the shapes that
are too slow for it.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import khatri_density  # noqa: E402
from sledist import coefficient_table  # noqa: E402

SHAPES = [(8, 8), (9, 9), (10, 10)]


def main() -> int:
    failed = 0
    for K, N in SHAPES:
        began = time.perf_counter()
        table = {ij: c for ij, c in coefficient_table(K, N).entries.items() if c}
        engine_s = time.perf_counter() - began
        began = time.perf_counter()
        oracle = khatri_density(K, N).entries()
        khatri_s = time.perf_counter() - began
        equal = table == oracle
        failed += not equal
        print(
            f"K={K} N={N} entries={len(table)} {'equal' if equal else 'MISMATCH'}"
            f" engine {engine_s:.3f} s, khatri {khatri_s:.3f} s",
            flush=True,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

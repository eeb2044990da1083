"""SHA-256 digests of CLI runs over a fixed matrix, one line per argv.

    python bench/cli_digests.py [CHECKOUT] [--shape K,N ...]

Each argv runs in a fresh ``python -m sledist.cli`` process that imports
sledist from CHECKOUT/src (default: the checkout holding this script).  A line
is the SHA-256 of the run's stdout, stderr and exit code, then the argv.  Two
checkouts that must print the same bytes give the same lines:

    python bench/cli_digests.py ../parent > parent.txt
    python bench/cli_digests.py . > change.txt
    diff parent.txt change.txt

``--shape`` replaces the default shapes; it may repeat.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SHAPES = [(2, 10), (4, 10), (6, 6), (8, 8), (9, 10), (4, 40), (4, 47), (4, 59), (4, 100), (2, 300)]
COMMANDS = [
    ["cdf"],
    *(["threshold", "--alpha", a] for a in ("0.1", "0.01", "0.001", "0.0001")),
    *(["quantile", "--p", p] for p in ("0.5", "0.9", "0.99")),
    ["moments"],
    ["coeffs"],
]


def digest(checkout: Path, argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "sledist.cli", *argv], cwd=checkout, env=env, capture_output=True
    )
    h = hashlib.sha256()
    for part in (run.stdout, run.stderr, str(run.returncode).encode()):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument(
        "--shape", action="append", type=lambda s: tuple(map(int, s.split(","))), help="K,N"
    )
    args = parser.parse_args()
    shapes = args.shape or SHAPES
    checkout = args.checkout.resolve()
    for K, N in shapes:
        for command in COMMANDS:
            argv = [*command, "--K", str(K), "--N", str(N)]
            print(digest(checkout, argv), " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

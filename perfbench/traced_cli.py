"""Run one sledist CLI request with spans around its layers.

    python3 perfbench/traced_cli.py START_NS -- <sledist CLI arguments>

START_NS is the CLOCK_MONOTONIC time at which the parent started this
process.  It opens the request span, so interpreter start-up counts as
request time, as it does for an untraced request.  Stdout and the exit code
are the CLI's own.  The request span closes when the CLI returns.  The last
line of stderr is SPANS_MARKER followed by the spans as JSON.
"""

import json
import sys
import traceback

from spans import Instrumentation, Recorder

SPANS_MARKER = "PERFBENCH-SPANS "


def main() -> int:
    start_ns = int(sys.argv[1])
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced_cli.py START_NS -- <sledist CLI arguments>")
    argv = sys.argv[3:]
    rec = Recorder()
    root = rec.open("request", start_ns=start_ns)
    span = rec.open("setup.import")
    ok = False
    try:
        import sledist.cli

        ok = True
    finally:
        rec.close(span, error=not ok)
    instrumentation = Instrumentation(rec)
    instrumentation.install()
    code, crashed = 1, True
    try:
        code = sledist.cli.main(argv)
        crashed = False
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the CLI would die with this traceback and exit code 1
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        rec.close(root, error=crashed)
        instrumentation.remove()
    sys.stderr.write(SPANS_MARKER + json.dumps(rec.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

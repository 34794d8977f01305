"""One fresh, single-threaded maroni invocation, measured from inside.

Usage: python3 perfbench/child.py {setup|plain|traced} -- <maroni argv>

Every mode imports ``maroni.cli``, builds the parser and notes the system
monotonic clock, which the parent compares with its launch time to get
the set-up time.  ``setup`` stops there.  ``plain`` and ``traced`` then
call ``maroni.cli.main(argv)`` with stdout captured in a buffer, timing
only that call; ``traced`` first wraps the package functions (see
``tracer.py``).  The last line on stdout is one JSON report.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(mode: str, argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from maroni import cli

    cli.build_parser()
    report = {"ready": time.monotonic()}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    buffer = io.StringIO()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails the run; report it, keep measuring
            traceback.print_exc()
            code = 1
    report["wall_s"] = time.perf_counter() - start
    report["cpu_s"] = _cpu_s() - cpu0
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["exit"] = code
    report["stdout"] = buffer.getvalue()
    if tracer is not None:
        from maroni import combinatorics

        info = combinatorics.gcd_profile.cache_info()
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
        report["gcd_profile"] = [info.hits, info.misses]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--" or sys.argv[1] not in (
            "setup", "plain", "traced"):
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1], sys.argv[3:]))

"""Run ``markovj.cli.main`` in one process for a list of argument vectors.

Usage: python3 bench/child.py JOB.json

The job names the source tree to import, the argument vectors, a
directory for their outputs, whether to trace, and the result file.
Each call's stdout goes to its own file; an exception that escapes
``main`` is recorded with its type and the layer it came from, and the
next call still runs.  The result file holds one record per call and,
when traced, the raw spans and counters.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import markovj.cli as cli  # noqa: E402  (path set above)
    from tracer import Tracer, install, origin_layer

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        install(tracer)
    ops = []
    for i, argv in enumerate(job["calls"]):
        out_path = os.path.join(job["dir"], f"out{i}.txt")
        error = None
        with open(out_path, "w") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:
                rc = 1
                error = {"type": type(exc).__name__, "layer": origin_layer(exc),
                         "message": str(exc)[:200]}
            wall = time.perf_counter() - start
        ops.append({"rc": rc, "error": error, "wall_s": wall, "stdout": out_path})
    result = {"ops": ops, "trace": tracer.snapshot() if tracer else None}
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload in a fresh interpreter.

Usage: child.py WORKLOAD VARIANT SCALE TRACE [--setup-only]

Set-up is everything before the first timed call: interpreter start,
`import hexholes` from the checkout's `src/`, and drawing the inputs.  The
child prints one JSON line: the monotonic clock at the first timed call
(the parent subtracts its own clock at spawn), the pass's wall time, each
operation's time, the records, `ru_maxrss`, and the trace when traced.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    workload, variant, scale, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hexholes

    if not os.path.abspath(hexholes.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"hexholes imported from {hexholes.__file__}, not from the checkout")
    import workloads

    ops, inputs = workloads.build(workload, variant, scale)
    if "--setup-only" in argv:
        return 0
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    first = time.monotonic()
    started = time.perf_counter()
    timings = []
    records = []
    for name, op in ops:
        t = time.perf_counter()
        records.extend(op())
        timings.append([name, time.perf_counter() - t])
    wall = time.perf_counter() - started

    out = {
        "first_call": first,
        "wall_s": wall,
        "ops": timings,
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "inputs": inputs,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""hexholes benchmark: end-to-end and per-layer metrics for three workloads.

    python3 hexbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 hexbench/run.py [--trace 0|1]    (every workload, one after another)
    python3 hexbench/run.py --self-check
    python3 hexbench/run.py --make-reference

Run from the root of a checkout; the package is imported from `src/`.

A run repeats passes of one workload for T seconds.  Each pass is one
fresh child interpreter (child.py) that imports the package, draws the
workload's inputs from the seed and runs every operation once, one after
the other.  A fresh process per pass means no pass profits from caches a
previous pass filled, as a user running `hexholes` once would not.  Every
record a pass returns is checked: it fails if its own pass flag is false
or if its exact integers differ from `reference/<workload>.json`.

With `--trace 0` the run reports the end-to-end metrics, medians over its
passes:

  setup_s       child spawn to first timed call (interpreter start,
                `import hexholes`, drawing the inputs)
  wall_s        wall time of one pass
  slowest_op_s  the slowest operation: the largest of the per-operation
                medians (every pass runs the same operations)
  peak_rss_mb   ru_maxrss of the pass's process

With `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (seconds and counts per pass), plus
`trace.overhead_ratio`, the traced over the untraced median wall time,
minus 1.  The aggregated spans go to `out/trace-<workload>-seed<N>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it,
`meta {...}`, records the machine, the commit and the drawn inputs.

`--self-check` runs every workload at a tiny size and checks that every
metric named in BENCHMARK.json is emitted with its unit, that the traced
self times add up to no more than the traced wall time, and that a
corrupted reference value makes the run fail.  `--make-reference`
rewrites the reference files from the current code; run it only when the
program's values are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
MB = 1024  # ru_maxrss is in KiB on Linux

END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = dict(
    sorted(
        {
            **dict.fromkeys(tracer.SELF_TIME_METRICS + tracer.SUITE_METRICS, "s"),
            **{m: "bits" if m.endswith("_bits_max") else "count" for m in tracer.COUNT_METRICS},
            **dict.fromkeys(("tiler.filter_kept_ratio", "tiler.dp_repeat_ratio", "trace.overhead_ratio"), "ratio"),
        }.items()
    )
)
MAXIMA = ("paths.matrix_order_max", "intlinalg.result_bits_max")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# passes


def run_child(workload: str, variant: int, scale: str, trace: bool, setup_only: bool = False) -> dict:
    # No cap overrides from the caller; bytecode is always cached, as for an
    # installed package, so set-up time does not depend on the caller's shell.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HEXHOLES_") and k != "PYTHONDONTWRITEBYTECODE"}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(variant), scale, "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT_S}s")
    except BaseException:  # interrupted or terminated: stop the child before leaving
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{err.strip()}")
    if setup_only:
        return {}
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{workload} pass printed no result: {exc}") from exc
    result["setup_s"] = result["first_call"] - spawned
    return result


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)["records"]


def check_records(records: list, reference: dict) -> list[str]:
    """Failures among the records: a false pass flag, a key with no stored
    value, or integers that differ from the stored ones."""
    bad = []
    for key, values, passed in records:
        expected = reference.get(key)
        if not passed:
            bad.append(f"{key}: pass is false")
        elif expected is None:
            bad.append(f"{key}: no reference value")
        elif expected != values:
            bad.append(f"{key}: {values} != reference {expected}")
    return bad


def run_passes(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[list, list]:
    """Untraced and traced passes for about `seconds` (at least one of each
    kind the run needs); traced passes alternate with untraced.  A pass
    starts only if it should end within half a pass of the deadline, so a
    run overshoots by half a pass at most on average."""
    variant = workloads.variant_of(seed)
    run_child(workload, variant, scale, trace=False, setup_only=True)  # writes bytecode, warms the file cache
    plain: list = []
    traced: list = []
    deadline = time.monotonic() + seconds
    last = 0.0
    while not (plain and (traced or not trace) and time.monotonic() + last / 2 >= deadline):
        want_trace = trace and len(traced) < len(plain)
        started = time.monotonic()
        (traced if want_trace else plain).append(run_child(workload, variant, scale, want_trace))
        last = time.monotonic() - started
    return plain, traced


# ---------------------------------------------------------------------------
# metrics


def end_to_end(plain: list) -> dict:
    return {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "slowest_op_s": max(statistics.median(times) for times in zip(*([t for _, t in p["ops"]] for p in plain))),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / MB for p in plain),
    }


def per_layer(plain: list, traced: list) -> dict:
    summaries = [p["trace"] for p in traced]
    passes = len(summaries)
    out = {}
    for metric in PER_LAYER:
        if metric in MAXIMA:
            out[metric] = max(s[metric] for s in summaries)
        elif metric in summaries[0]:
            out[metric] = sum(s[metric] for s in summaries) / passes
    kept = sum(s["filter_kept"] for s in summaries)
    filtered = sum(s["filter_enumerated"] for s in summaries)
    repeats = sum(s["dp_repeats"] for s in summaries)
    dp_calls = sum(s["tiler.dp_calls"] for s in summaries)
    out["tiler.filter_kept_ratio"] = kept / filtered if filtered else 0.0
    out["tiler.dp_repeat_ratio"] = repeats / dp_calls if dp_calls else 0.0
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return out


def self_time_excess(traced: list) -> list[str]:
    """Traced passes whose per-layer self times add up to more than the
    pass's wall time (impossible if the spans nest correctly)."""
    bad = []
    for p in traced:
        total = sum(p["trace"][m] for m in tracer.SELF_TIME_METRICS)
        if total > p["wall_s"]:
            bad.append(f"self times {total:.6f}s > wall {p['wall_s']:.6f}s")
    return bad


def machine_meta() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# modes


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    plain, traced = run_passes(workload, seed, seconds, trace, scale)
    reference = load_reference(workload)
    passes = plain + traced
    failures = [f for p in passes for f in check_records(p["records"], reference)]
    attempted = sum(len(p["records"]) for p in passes)
    if trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(plain), END_TO_END
    meta = {
        **machine_meta(),
        "workload": workload,
        "seed": seed,
        "variant": workloads.variant_of(seed),
        "scale": scale,
        "pass_wall_s": {"untraced": [p["wall_s"] for p in plain], "traced": [p["wall_s"] for p in traced]},
        "inputs": plain[0]["inputs"],
    }
    return {
        "meta": meta,
        "plain": plain,
        "traced": traced,
        "failures": failures,
        "result": {
            "correct": not failures and attempted > 0,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def write_trace(run: dict) -> str:
    meta = run["meta"]
    path = os.path.join(HERE, "out", f"trace-{meta['workload']}-seed{meta['seed']}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    passes = [{"wall_s": p["wall_s"], "ops": p["ops"], **p["trace"]} for p in run["traced"]]
    with open(path, "w") as fh:
        json.dump({"meta": meta, "passes": passes}, fh, indent=1)
    return path


def cmd_run(workload: str, args) -> None:
    run = measure(workload, args.seed, args.seconds, args.trace == 1)
    result = run["result"]
    for failure in run["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace == 1:
        print(f"trace written to {os.path.relpath(write_trace(run), ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} fail_ratio = {result['failed'] / result['attempted']:.6g} ratio ({result['failed']} of {result['attempted']} records)")
    print("meta " + json.dumps(run["meta"], sort_keys=True))
    print(json.dumps(result))


def cmd_make_reference(_args) -> int:
    for workload in workloads.WORKLOADS:
        records: dict = {}
        for variant in range(workloads.VARIANTS):
            result = run_child(workload, variant, "full", trace=False)
            for key, values, passed in result["records"]:
                if not passed:
                    raise BenchError(f"{workload} variant {variant}: {key} fails; refusing to store it")
                if records.setdefault(key, values) != values:
                    raise BenchError(f"{workload}: {key} has two values")
        path = os.path.join(HERE, "reference", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        lines = [f"{json.dumps(key)}: {json.dumps(values)}" for key, values in sorted(records.items())]
        with open(path, "w") as fh:
            fh.write(f'{{"workload": "{workload}", "variants": {workloads.VARIANTS}, "records": {{\n')
            fh.write(",\n".join(lines) + "\n}}\n")
        print(f"{workload}: {len(records)} reference records")
    return 0


def cmd_self_check(_args) -> int:
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for group, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[group]}
        if listed != units:
            problems.append(f"BENCHMARK.json {group} differs from the metrics the benchmark emits")
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            run = measure(workload, 7, 0, trace, scale="tiny")
            result = run["result"]
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != units or not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{workload} trace={int(trace)}: metrics or units missing")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {run['failures'][:3]}")
            if trace:
                problems += [f"{workload}: {p}" for p in self_time_excess(run["traced"])]
                reference = load_reference(workload)
                key, values, _ = run["plain"][0]["records"][0]
                corrupted = {**reference, key: [v + "1" for v in values]}
                if not check_records(run["plain"][0]["records"], corrupted):
                    problems.append(f"{workload}: a corrupted reference value went unnoticed")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"SELF-CHECK FAILED {problem}", file=sys.stderr)
    print("self-check:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.self_check:
            return cmd_self_check(args)
        if args.make_reference:
            return cmd_make_reference(args)
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            cmd_run(workload, args)
        return 0
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

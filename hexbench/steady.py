"""Steadiness check and baseline for the hexholes benchmark.

    python3 hexbench/steady.py [--runs 10] [--first-seed 101] [--workload NAME ...] [--baseline]

Runs the benchmark command of BENCHMARK.json `--runs` times on each
workload, each time with another seed, and reports for every end-to-end
metric the median, the quartiles and the spread: the distance between the
quartiles as a share of the median.  A metric is steady when its spread
stays below a third of its bound (`setup_s` is reported but exempt).

With `--baseline` it adds one traced run per workload, checks that the
layer predicted to dominate each workload holds more than half of the
traced self time, and writes everything to `baseline.json` beside this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

PREDICTED_DOMINANT = {
    "grid-certify": ("tiler.enum_s", "tiler.filter_s"),
    "count-ladder": ("tiler.dp_plain_s", "tiler.dp_free_s", "tiler.dp_weighted_s"),
    "closed-form-scale": ("paths.generic_build_s", "intlinalg.pfaffian_s"),
}


def bench(declared: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = declared["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(declared["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def spread_table(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    names = args.workload or [w["name"] for w in declared["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report: dict = {"meta": run.machine_meta(), "run_seconds": declared["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for workload in names:
        runs = [bench(declared, workload, seed, 0) for seed in seeds]
        table = {}
        for metric in bounds:
            table[metric] = spread_table([r["metrics"][metric]["value"] for r in runs])
            limit = bounds[metric] / 3
            ok = metric == "setup_s" or table[metric]["spread"] < limit
            steady &= ok
            print(
                f"{workload:18s} {metric:13s} median {table[metric]['median']:.6g} "
                f"q1 {table[metric]['q1']:.6g} q3 {table[metric]['q3']:.6g} "
                f"spread {table[metric]['spread']:.4f} (< {limit:.4f}) {'ok' if ok else 'WIDE'}",
                flush=True,
            )
        entry = {"end_to_end": table}
        if args.baseline:
            traced = bench(declared, workload, seeds[0], 1)["metrics"]
            layers = {name: m["value"] for name, m in traced.items()}
            own = sum(layers[m] for m in tracer.SELF_TIME_METRICS)
            share = sum(layers[m] for m in PREDICTED_DOMINANT[workload]) / own
            entry["per_layer"] = layers
            entry["prediction"] = {"dominant": list(PREDICTED_DOMINANT[workload]), "share_of_self_time": share, "held": share > 0.5}
            print(f"{workload:18s} predicted dominant {'+'.join(PREDICTED_DOMINANT[workload])}: {share:.3f} of self time", flush=True)
        report["workloads"][workload] = entry
    if args.baseline:
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("steady:", "yes" if steady else "NO")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

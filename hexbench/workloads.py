"""The three workloads: their inputs, drawn from a seed, and one pass of
their operations.

A pass runs every operation of the workload once, in one fresh process,
as a closed loop with one client: each operation starts when the last one
returned.  Every operation returns records, each reduced to a reference
key, its exact integers as decimal strings, and its pass flag.  Method
strings are not kept, so an engine swap that keeps every value still
matches the references.

Seeds fold onto VARIANTS input variants (variant = seed % VARIANTS);
`reference/<workload>.json` holds the exact integers of every record of
every variant, so every seed is checked against stored values.

Why these workloads:

* grid-certify: the fourteen identity suites through `verify.run_suite`,
  the work of `hexholes selftest`.  Enumeration and the symmetry filter
  dominate, on many tiny regions; the DP and matrix layers barely run.
  The four enumeration-bound suites run on a reduced grid so that a pass
  fits in a few seconds; the other ten run on the default grid.  The seed
  feeds the random reduction suite.
* count-ladder: `hexholes count` through `cli.main`, all five classes on
  every two-hole region of the rungs (7,2) and (7,3) and on the tracking
  point n=8 m=3 k=2,4, whose counts are the slowest operations.  The
  profile DP on a few larger regions dominates; no crosscheck falls under
  the enumeration limit, so enumeration is bypassed.  Every hole list of a
  rung is run because the DP cost depends on where the holes sit (over 2x
  between hole lists of one rung, too much for a seeded draw to give
  steady times); the seed orders the operations.
* closed-form-scale: the matrix side at sizes no tiler can reach: skew
  and LGV matrices against their double-sum oracles, the reduction chain
  and Pfaffian = determinant on seeded hole lists, then the seeded random
  structured-skew suite.  No `regions` or `tiler` call at all; a few
  matrices of order up to ~40 with huge entries, against grid-certify's
  hundreds of order <= 10.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations

VARIANTS = 8

# grid-certify: suite name -> grid override (None = the default grid)
ENUMERATION_GRID = {"n_values": (2, 3, 4), "m_values": (1,)}
GRID_SUITES = {
    "full": (
        ("factorization", ENUMERATION_GRID),
        ("halves", ENUMERATION_GRID),
        ("weighted-split", None),
        ("pfaffian-determinant", None),
        ("skew-matrix", None),
        ("lgv-matrix", None),
        ("reduction", None),
        ("reduction-chain", None),
        ("rhombus-factorization", {"n_values": (2,), "m_values": (1,), "l_values": (0, 1), "x_values": (1, 2, 3)}),
        ("axis-split", None),
        ("box-product", None),
        ("contiguity", None),
        ("oracles", {"n_values": (2, 3, 4, 5), "m_values": (1,)}),
        ("polynomial", None),
    ),
}
TINY_GRID = {"n_values": (2, 3), "m_values": (1,)}
GRID_SUITES["tiny"] = tuple(
    (name, {**TINY_GRID, "l_values": (0,), "x_values": (1,)} if name == "rhombus-factorization" else TINY_GRID)
    for name, _ in GRID_SUITES["full"]
)
GRID_TRIALS = {"full": 200, "tiny": 10}

LADDER_RUNGS = {"full": ((7, 2), (7, 3)), "tiny": ((7, 2),)}
LADDER_HOLES = 2
LADDER_TOP = {"full": ("n=8 m=3 k=2,4",), "tiny": ()}
COUNT_CLASSES = ("full", "hsym", "vsym", "free-left", "weighted-lower")

CLOSED_SPECS = ((30, 8, 3), (40, 10, 4), (50, 14, 5))
CLOSED_SCALE = {"full": (3, 100), "tiny": (1, 10)}  # (specs used, reduction trials)
REDUCTION_BOUNDS = dict(m_max=8, l_max=4)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _grid_ops(variant: int, scale: str):
    from hexholes import verify

    ops = []
    for name, grid in GRID_SUITES[scale]:
        def op(name=name, grid=grid):
            records = verify.run_suite(name, grid=grid, trials=GRID_TRIALS[scale], seed=variant)
            # the random suite's record names repeat across seeds with other values
            prefix = f"{name}@{variant}" if name == "reduction" else name
            return [_identity_entry(prefix, rec) for rec in records]

        ops.append((name, op))
    return ops, {"suites": [[name, grid] for name, grid in GRID_SUITES[scale]], "trials": GRID_TRIALS[scale], "seed": variant}


def ladder_specs(scale: str) -> list[str]:
    return [
        f"n={n} m={m} k={','.join(map(str, ks))}"
        for n, m in LADDER_RUNGS[scale]
        for ks in combinations(range(1, n // 2 + 1), LADDER_HOLES)
    ] + list(LADDER_TOP[scale])


def _ladder_ops(variant: int, scale: str):
    from hexholes import cli

    jobs = [(spec, cls) for spec in ladder_specs(scale) for cls in COUNT_CLASSES]
    random.Random(variant).shuffle(jobs)
    if scale == "tiny":
        jobs = jobs[:4]
    ops = []
    for spec, cls in jobs:
        def op(spec=spec, cls=cls):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli.main(["count", *spec.split(), "--class", cls])
            rec = json.loads(out.getvalue().strip().splitlines()[-1])
            ok = status == 0 and rec["pass"] and rec["spec"] == spec and rec["class"] == cls
            return [[f"{rec['spec']}|{rec['class']}", [rec["value"]], ok]]

        ops.append((f"count {spec} --class {cls}", op))
    return ops, {"counts": [list(job) for job in jobs]}


def closed_form_specs(variant: int, scale: str) -> list[tuple[int, int, tuple[int, ...]]]:
    rng = random.Random(variant)
    drawn = [(n, m, tuple(sorted(rng.sample(range(1, n // 2 + 1), l)))) for n, m, l in CLOSED_SPECS]
    return drawn[: CLOSED_SCALE[scale][0]]


def _closed_ops(variant: int, scale: str):
    from hexholes import paths, regions, verify

    ops = []
    specs = closed_form_specs(variant, scale)
    for n, m, holes in specs:
        spec = regions.RegionSpec(n, m, holes)

        def op(spec=spec):
            records = (
                verify.check_skew_matrix([spec])
                + verify.check_lgv_matrix([spec])
                + verify.check_reduction_chain([spec])
            )
            pf = paths.count_free_via_pfaffian(spec)
            det = paths.count_weighted2_via_det(spec)
            records.append(verify.record(spec.text(), "pfaffian-eq-det", pf, det, "", ""))
            return [_identity_entry("spec", rec) for rec in records]

        ops.append((f"certify {spec.text()}", op))
    trials = CLOSED_SCALE[scale][1]

    def reduction_op():
        records = verify.check_reduction(trials, variant, **REDUCTION_BOUNDS)
        return [_identity_entry(f"reduction@{variant}", rec) for rec in records]

    ops.append((f"reduction trials={trials}", reduction_op))
    meta = {"specs": [[n, m, list(h)] for n, m, h in specs], "reduction": {"trials": trials, "seed": variant, **REDUCTION_BOUNDS}}
    return ops, meta


def _identity_entry(prefix: str, rec: dict) -> list:
    return [f"{prefix}|{rec['spec']}|{rec['identity']}", [rec["lhs"], rec["rhs"]], bool(rec["pass"])]


WORKLOAD_OPS = {"grid-certify": _grid_ops, "count-ladder": _ladder_ops, "closed-form-scale": _closed_ops}
WORKLOADS = tuple(WORKLOAD_OPS)


def build(workload: str, variant: int, scale: str):
    """(operations, description of the drawn inputs).  The package modules
    are imported here, so importing them is part of set-up."""
    return WORKLOAD_OPS[workload](variant, scale)

"""Command-line front end: counts, identity verification sweeps, the
polynomiality probe, and the full self-test.

Region specs are given as key=value tokens (`n=15 m=5 k=2,5,7 x=0`); grids
as comparisons (`--grid "n<=4 m<=2 l<=1"` or `"n in {2,4} x in {1,3}"`).
Exact integers are serialized as decimal strings in JSON output.  Exit
status is 0 when every checked identity holds, 1 when one fails, 2 on
bad input or an exceeded cap, and 141 when the reader of stdout closed it
early; under `--format json` that error is also printed to stdout as one
record, `{"error": "...", "pass": false}`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
import time
from typing import Iterable

from . import verify
from .regions import CapExceeded, RegionSpec, parse_int

GRID_TOKEN = re.compile(r"(\w+)\s*(<=|=|in)\s*(\{[^{}]*\}|\S+)")

_GRID_KEYS = {"n": "n_values", "m": "m_values", "l": "l_values", "x": "x_values"}
_GRID_MINIMUM = {"n": 1, "m": 1, "l": 0, "x": 0}


def parse_grid(text: str) -> dict:
    """Grid bounds like 'n<=4 m<=2 l<=1' or 'n in {2,4} x in {1,3}'."""
    bounds: dict = {}
    consumed = 0
    for match in GRID_TOKEN.finditer(text):
        var, op, value = match.groups()
        consumed += len(match.group(0).replace(" ", ""))
        if var not in _GRID_KEYS:
            raise ValueError(f"unknown grid variable {var!r}")
        if _GRID_KEYS[var] in bounds:
            raise ValueError(f"grid variable {var!r} given twice")
        number = functools.partial(parse_int, match.group(0))
        if op == "<=":
            values = range(_GRID_MINIMUM[var], number(value) + 1)
        elif op == "=":
            values = (number(value),)
        else:
            inner = value.strip("{}")
            values = tuple(number(part) for part in inner.split(",") if part)
        bounds[_GRID_KEYS[var]] = tuple(values)
    if consumed != len(text.replace(" ", "")):
        raise ValueError(f"could not parse grid spec {text!r}")
    return bounds


def emit(records: Iterable[dict], fmt: str) -> None:
    """Write the records to stdout as they come; CSV takes its one header from the first."""
    out = sys.stdout
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    elif fmt == "csv":
        writer = None
        for rec in records:
            if writer is None:
                writer = csv.DictWriter(out, fieldnames=list(rec.keys()))
                writer.writeheader()
            writer.writerow(rec)
    elif fmt == "text":
        for rec in records:
            status = "ok" if rec.get("pass") else "FAIL"
            parts = [f"{k}={v}" for k, v in rec.items() if k != "pass"]
            out.write(f"[{status}] " + " ".join(parts) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# count / verify / polycheck / selftest


def cmd_count(args) -> int:
    rec = verify.count(RegionSpec.parse(" ".join(args.spec)), args.cls)
    emit([rec], args.format)
    return 0 if rec["pass"] else 1


def cmd_verify(args) -> int:
    grid = parse_grid(" ".join(args.grid)) if args.grid else None
    if args.target == "all" and args.trials < 1:
        # refuse an empty random suite up front, where other suites' records would hide it
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    names = list(verify.SUITES) if args.target == "all" else [args.target]
    passed: list[bool] = []
    chains: dict = {}  # one run table for the command's suites, dropped with it

    def records():
        # a generator, so that each suite's records print as the suite ends
        for name in names:
            for rec in verify.run_suite(name, grid=grid, trials=args.trials, seed=args.seed, chains=chains):
                passed.append(rec["pass"])
                yield rec

    emit(records(), args.format)
    if not passed:
        raise ValueError(f"verify {args.target} checked nothing: the grid or --trials selects no instance")
    return 0 if all(passed) else 1


def cmd_polycheck(args) -> int:
    spec = RegionSpec.parse(" ".join(args.spec))
    if spec.holes or spec.central_x:
        raise ValueError("polycheck takes a plain hexagon spec (n=.. m=..)")
    profile = verify.polynomial_profile(spec.n, spec.m, args.xmax)
    emit(
        [
            {
                "spec": f"n={spec.n} m={spec.m}",
                "identity": "polynomial-in-x",
                "values": ",".join(profile["values"]),
                "vanish_order": profile["vanish_order"],
                "pass": profile["pass"],
            }
        ],
        args.format,
    )
    return 0 if profile["pass"] else 1


def cmd_selftest(args) -> int:
    """One record per suite, printed once every suite has run; `--format
    text` prints a table instead, a line as each suite ends, and a verdict.
    The suites share one run table, so a suite's seconds count only the
    links of the chains that no earlier suite filled."""
    summary = []
    chains: dict = {}
    for name in verify.SUITES:
        started = time.perf_counter()
        records = verify.run_suite(name, chains=chains)
        seconds = time.perf_counter() - started
        bad = sum(1 for rec in records if not rec["pass"])
        summary.append(
            {"suite": name, "checks": len(records), "failures": bad, "seconds": round(seconds, 3), "pass": bad == 0}
        )
        if args.format == "text":
            status = "PASS" if bad == 0 else f"FAIL({bad})"
            print(f"{name:24s} {status:9s} {len(records):4d} checks  {seconds:6.2f}s")
    failures = sum(rec["failures"] for rec in summary)
    if args.format == "text":
        print("selftest:", "PASS" if failures == 0 else f"FAIL ({failures} checks)")
    else:
        emit(summary, args.format)
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexholes",
        description="Exact tiling counts and identity verification for holey hexagons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("count", help="count tilings of one region")
    p.add_argument("spec", nargs="+", help="region spec tokens, e.g. n=2 m=1 k=1")
    p.add_argument("--class", dest="cls", choices=tuple(verify.COUNT_CLASSES), default="full")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run one identity suite over a grid")
    p.add_argument("target", choices=(*verify.SUITES, "all"))
    p.add_argument("--grid", nargs="+", default=None, help='e.g. n<=4 m<=2 l<=1 or "n in {2,4}"')
    common(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("polycheck", help="finite differences of the rhombus-hole counts")
    p.add_argument("spec", nargs="+", help="hexagon spec, e.g. n=2 m=1")
    p.add_argument("--xmax", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_polycheck)

    p = sub.add_parser("selftest", help="run every suite on its default grid")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(suites: tuple[str, ...]) -> argparse.ArgumentParser:
    """build_parser(), built once per process: `verify`'s choices are read
    from verify.SUITES when the parser is built, so its suite names are the
    cache key."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(tuple(verify.SUITES)).parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader stopped early (`| head`): end as quietly as SIGPIPE
        # would, with nothing left to flush at exit, and with its status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, CapExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        if args.format == "json":
            emit([{"error": str(err), "pass": False}], "json")
        return 2


if __name__ == "__main__":
    sys.exit(main())

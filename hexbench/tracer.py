"""Layer tracing from outside the package.

`install(tracer)` replaces each public function listed in LAYERS, in every
`hexholes` module namespace that binds it, by a wrapper that records a
span.  Spans nest on a stack, so a layer's self time is its span's
duration minus the time its child spans cover, and the per-layer self
times add up to at most the traced wall time.  Spans are aggregated in
memory by (parent span, span) and handed out at the end by `summary()`.

Functions that are not listed are not spans: their time is self time of
the nearest listed caller.  `map_tiling`, for instance, is consumer work
inside a symmetry filter, so it lands in `tiler.filter_s`, while the
enumeration itself is timed per `next()` and lands in `tiler.enum_s`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

clock = time.perf_counter

SUITE_FUNCTIONS = {
    "check_factorization": "factorization",
    "check_halves": "halves",
    "check_weighted_split": "weighted-split",
    "check_pfaffian_determinant": "pfaffian-determinant",
    "check_skew_matrix": "skew-matrix",
    "check_lgv_matrix": "lgv-matrix",
    "check_reduction": "reduction",
    "check_reduction_chain": "reduction-chain",
    "check_rhombus_factorization": "rhombus-factorization",
    "check_axis_split": "axis-split",
    "check_box_product": "box-product",
    "check_contiguity": "contiguity",
    "check_oracles": "oracles",
    "check_polynomial": "polynomial",
}

REGION_FUNCTIONS = (
    "build_region",
    "build_hexagon",
    "punch_holes",
    "punch_symmetric_triangle_pair",
    "punch_central_rhombus",
    "upper_half",
    "lower_half_weighted",
    "left_half_free",
)

# (module, function names, self-time metric, hook kind)
LAYERS = (
    ("regions", REGION_FUNCTIONS, "regions.build_s", "region"),
    ("tiler", ("count_plain", "count_profile_dp"), "tiler.dp_plain_s", "dp"),
    ("tiler", ("count_free",), "tiler.dp_free_s", "dp"),
    ("tiler", ("count_weighted2",), "tiler.dp_weighted_s", "dp"),
    ("tiler", ("count_hsym", "count_vsym"), "tiler.filter_s", "filter"),
    ("tiler", ("enumerate_tilings",), "tiler.enum_s", "generator"),
    ("tiler", ("count_via_enumeration", "weighted2_via_enumeration"), "tiler.enum_s", None),
    ("tiler", ("split_by_axis",), "tiler.split_s", None),
    ("paths", ("free_endpoint_pfaffian_matrix", "lgv_matrix"), "paths.generic_build_s", "matrix"),
    ("paths", ("endline_skew_matrix", "diagonal_lgv_matrix", "left_piece_matrix"), "paths.closed_build_s", "matrix"),
    (
        "paths",
        ("brute_force_endline_families", "brute_force_fixed_families", "count_free_by_families", "count_weighted2_by_families"),
        "paths.families_s",
        None,
    ),
    ("intlinalg", ("pfaffian_elimination", "pfaffian_by_matchings"), "intlinalg.pfaffian_s", "linalg"),
    ("intlinalg", ("determinant",), "intlinalg.det_s", "linalg"),
    ("reduction", ("verify_pfaffian_reduction",), "reduction.certificate_s", None),
    ("reduction", ("fold_transform", "extract_reduced", "difference_transform"), "reduction.transform_s", None),
    ("reduction", ("random_structured",), "reduction.random_s", None),
    (
        "closedforms",
        (
            "box_tilings",
            "symmetric_box_tilings",
            "transpose_complement_box_tilings",
            "hexagon_total",
            "hexagon_vsym",
            "hexagon_hsym",
            "verify_box_product",
        ),
        "closedforms.s",
        None,
    ),
    ("verify", tuple(SUITE_FUNCTIONS) + ("run_suite", "polynomial_profile"), "verify.self_s", "suite"),
    ("cli", ("main",), "cli.self_s", None),
)

SELF_TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in LAYERS))
SUITE_METRICS = tuple(f"verify.{suite}_s" for suite in SUITE_FUNCTIONS.values())
COUNT_METRICS = (
    "regions.calls",
    "regions.triangles",
    "tiler.enum_tilings",
    "tiler.dp_calls",
    "tiler.dp_cells",
    "paths.matrix_order_max",
    "intlinalg.calls",
    "intlinalg.result_bits_max",
)
DP_GROUP = {"count_plain": "plain", "count_profile_dp": "plain", "count_free": "free", "count_weighted2": "weighted"}


class Tracer:
    """Span stack plus the counters recorded at layer boundaries."""

    def __init__(self) -> None:
        # each frame: [span name, layer, start, time covered by child spans,
        #              tilings enumerated before the span began]
        self.stack: list[list] = []
        self.edges: dict[tuple[str, str], list] = {}
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.enumerated = 0
        self.filter_enumerated = 0
        self.filter_kept = 0
        self.dp_repeats = 0
        self.dp_seen: set = set()

    def enter(self, name: str, layer: str) -> None:
        self.stack.append([name, layer, clock(), 0.0, self.enumerated])

    def exit(self, metric: str) -> tuple[float, list, str | None]:
        """Close the innermost span; returns (duration, frame, parent layer)."""
        frame = self.stack.pop()
        duration = clock() - frame[2]
        own = duration - frame[3]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        key = (parent[0] if parent else "<op>", frame[0])
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += own
        self.seconds[metric] += own
        return duration, frame, parent[1] if parent else None

    def charge_hook(self, started: float) -> None:
        """Keep counter bookkeeping out of the enclosing span's self time."""
        if self.stack:
            self.stack[-1][3] += clock() - started

    def record(self, kind: str, name: str, args: tuple, kwargs: dict, result, duration: float, frame: list, parent_layer) -> None:
        c = self.counts
        if kind == "region":
            if parent_layer != "regions":
                c["regions.calls"] += 1
                c["regions.triangles"] += len(result.triangles)
        elif kind == "dp":
            region = args[0] if args else kwargs["region"]
            c["tiler.dp_calls"] += 1
            c["tiler.dp_cells"] += len(region.triangles)
            key = (DP_GROUP[name], region)
            if key in self.dp_seen:
                self.dp_repeats += 1
            else:
                self.dp_seen.add(key)
        elif kind == "filter":
            enumerated = self.enumerated - frame[4]
            if enumerated:
                self.filter_enumerated += enumerated
                self.filter_kept += result
        elif kind == "matrix":
            c["paths.matrix_order_max"] = max(c["paths.matrix_order_max"], result.nrows, result.ncols)
        elif kind == "linalg":
            c["intlinalg.calls"] += 1
            c["intlinalg.result_bits_max"] = max(c["intlinalg.result_bits_max"], abs(result).bit_length())
        elif kind == "suite":
            suite = SUITE_FUNCTIONS.get(name)
            if suite is not None:
                self.seconds[f"verify.{suite}_s"] += duration

    def wrap(self, fn, layer: str, metric: str, kind: str | None):
        name = fn.__name__
        tracer = self

        if kind == "generator":

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    tracer.enter(name, layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.exit(metric)
                        return
                    except BaseException:
                        tracer.exit(metric)
                        raise
                    tracer.exit(metric)
                    tracer.enumerated += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(metric)
                raise
            duration, frame, parent_layer = tracer.exit(metric)
            if kind is not None:
                started = clock()
                tracer.record(kind, name, args, kwargs, result, duration, frame, parent_layer)
                tracer.charge_hook(started)
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer numbers of this process, plus the aggregated spans."""
        out: dict = {metric: self.seconds.get(metric, 0.0) for metric in SELF_TIME_METRICS + SUITE_METRICS}
        out.update({metric: self.counts.get(metric, 0) for metric in COUNT_METRICS})
        out["tiler.enum_tilings"] = self.enumerated
        out["filter_enumerated"] = self.filter_enumerated
        out["filter_kept"] = self.filter_kept
        out["dp_repeats"] = self.dp_repeats
        out["spans"] = [
            {"parent": parent, "name": name, "calls": calls, "total_s": total, "self_s": own}
            for (parent, name), (calls, total, own) in sorted(self.edges.items())
        ]
        return out


def install(tracer: Tracer) -> None:
    """Patch every listed function wherever a hexholes module binds it.
    Names a later version of the package no longer defines are skipped, and
    a name that aliases an already wrapped function is wrapped only once."""
    import importlib

    import hexholes

    for layer in dict.fromkeys(layer for layer, _, _, _ in LAYERS):
        importlib.import_module(f"hexholes.{layer}")
    modules = [hexholes] + [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("hexholes.") and module is not None
    ]
    wrapped: set = set()
    for layer, names, metric, kind in LAYERS:
        source = sys.modules[f"hexholes.{layer}"]
        for name in names:
            original = getattr(source, name, None)
            if original is None or original in wrapped:
                continue
            wrapper = tracer.wrap(original, layer, metric, kind)
            wrapped.update((original, wrapper))
            for module in modules:
                for attr in [attr for attr, value in vars(module).items() if value is original]:
                    setattr(module, attr, wrapper)

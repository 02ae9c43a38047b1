"""Named identity suites run over instance grids.

Each suite checks one exact identity on a set of instances and returns one
record per checked equation: spec text, both sides as decimal strings, the
method that produced each side, and a pass flag.  The command line prints
these records; the acceptance tests assert on them.  All comparisons are
exact integer equality.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Sequence

from . import closedforms, paths, reduction, tiler
from .intlinalg import LabeledMatrix, pfaffian_elimination
from .regions import (
    Region,
    RegionSpec,
    build_hexagon,
    build_region,
    left_half_free,
    lower_half_weighted,
    punch_symmetric_triangle_pair,
    upper_half,
)


def record(spec: str, identity: str, lhs: int, rhs: int, method_lhs: str, method_rhs: str) -> dict:
    return {
        "spec": spec,
        "identity": identity,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "method_lhs": method_lhs,
        "method_rhs": method_rhs,
        "pass": lhs == rhs,
    }


def _entries_record(
    spec: str, identity: str, lhs: LabeledMatrix, rhs: LabeledMatrix, method_lhs: str, method_rhs: str
) -> dict:
    """1 = 1 when the two matrices agree entry for entry; otherwise lhs is
    0 and method_lhs names the first differing entry, row by row, by the
    (row label, column label) of the lhs matrix."""
    if lhs.rows == rhs.rows:
        return record(spec, identity, 1, 1, method_lhs, method_rhs)
    bad = next(
        (
            (lhs.row_labels[i], lhs.col_labels[j])
            for i, (row, other) in enumerate(zip(lhs.rows, rhs.rows))
            for j, (a, b) in enumerate(zip(row, other))
            if a != b
        ),
        None,
    )
    where = "shapes differ" if bad is None else f"first bad entry {bad!r}"
    return record(spec, identity, 0, 1, f"{method_lhs}, {where}", method_rhs)


def hole_lists(n: int, l: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n // 2 + 1), l))


def iter_specs(
    n_values: Iterable[int],
    m_values: Iterable[int],
    l_values: Iterable[int],
    x_values: Iterable[int] = (0,),
) -> list[RegionSpec]:
    """All valid specs over the bounds, in lexicographic (n, m, l, k, x) order."""
    out = []
    for n in sorted(set(n_values)):
        for m in sorted(set(m_values)):
            for l in sorted(set(l_values)):
                for ks in hole_lists(n, l):
                    for x in sorted(set(x_values)):
                        if x > 0 and n % 2:
                            continue
                        out.append(RegionSpec(n, m, ks, x))
    return out


DEFAULT_GRID = dict(n_values=range(2, 7), m_values=(1, 2), l_values=(0, 1, 2))


# ---------------------------------------------------------------------------
# tiling-level identities


def _symmetry_classes(region: Region, plain: int) -> tuple[int, int]:
    """(hsym, vsym) of a region with `plain` tilings: by definition where
    it is enumerable, else by the half-region engines."""
    if tiler.enumerable(region, plain):
        return tiler.symmetric_via_enumeration(region)
    return tiler.count_plain(upper_half(region)), tiler.count_free(left_half_free(region))


def _factorization(specs: Sequence[RegionSpec], identity: str) -> list[dict]:
    """plain = hsym * vsym per spec, recorded under the given identity."""
    out = []
    for spec in specs:
        region = build_region(spec)
        total = tiler.count_plain(region)
        hs, vs = _symmetry_classes(region, total)
        out.append(record(spec.text(), identity, total, hs * vs, "kasteleyn-det", "hsym*vsym"))
    return out


def check_factorization(specs: Sequence[RegionSpec]) -> list[dict]:
    """plain = hsym * vsym, all three by the tiler."""
    return _factorization(specs, "factorization")


def check_rhombus_factorization(specs: Sequence[RegionSpec]) -> list[dict]:
    """The factorization on regions with a central rhombus hole."""
    return _factorization(specs, "rhombus-factorization")


def check_halves(specs: Sequence[RegionSpec]) -> list[dict]:
    """The two cut equivalences, tested by definition (enumeration filter)
    against the half-region counts, on every instance small enough to
    enumerate."""
    out = []
    for spec in specs:
        region = build_region(spec)
        if not tiler.enumerable(region, tiler.count_plain(region)):
            continue
        hs, vs = tiler.symmetric_via_enumeration(region)
        upper = tiler.count_plain(upper_half(region))
        free = tiler.count_free(left_half_free(region))
        out.append(record(spec.text(), "sym-eq-upper-half", hs, upper, "enumeration-filter", "kasteleyn-det"))
        out.append(record(spec.text(), "sym-eq-free-half", vs, free, "enumeration-filter", "kasteleyn-pfaffian"))
    return out


def check_weighted_split(specs: Sequence[RegionSpec]) -> list[dict]:
    """plain = upper-half * free-half and plain = upper-half * weighted-lower
    (the integer form absorbing the power of two)."""
    out = []
    for spec in specs:
        region = build_region(spec)
        total = tiler.count_plain(region)
        upper = tiler.count_plain(upper_half(region))
        free = tiler.count_free(left_half_free(region))
        w2 = tiler.count_weighted2(lower_half_weighted(region))
        out.append(
            record(spec.text(), "split-free", total, upper * free, "kasteleyn-det", "upper*free")
        )
        out.append(
            record(spec.text(), "split-weighted", total, upper * w2, "kasteleyn-det", "upper*weighted2")
        )
    return out


def check_pfaffian_determinant(specs: Sequence[RegionSpec]) -> list[dict]:
    """The analytic core: signed Pfaffian = determinant, and each equals the
    corresponding tiler count."""
    out = []
    for spec in specs:
        if spec.central_x:
            continue
        region = build_region(spec)
        pf = paths.count_free_via_pfaffian(spec)
        det = paths.count_weighted2_via_det(spec)
        free = tiler.count_free(left_half_free(region))
        w2 = tiler.count_weighted2(lower_half_weighted(region))
        s = spec.text()
        out.append(record(s, "pfaffian-eq-det", pf, det, "signed-pfaffian", "determinant"))
        out.append(record(s, "pfaffian-eq-tiler", pf, free, "signed-pfaffian", "kasteleyn-pfaffian"))
        out.append(record(s, "det-eq-tiler", det, w2, "determinant", "weighted kasteleyn-det"))
    return out


def check_axis_split(specs: Sequence[RegionSpec]) -> list[dict]:
    """Per-subset split along the perpendicular axis: the squared counts sum
    to the plain count, the counts sum to the symmetric count, and each
    one-sided count matches its binomial determinant."""
    out = []
    for spec in specs:
        region = build_region(spec)
        plain = tiler.count_plain(region)
        table = tiler.split_by_axis(spec)
        s = spec.text()
        out.append(
            record(
                s,
                "axis-split-squares",
                sum(c * c for _, c in table),
                plain,
                "sum of squared piece counts",
                "kasteleyn-det",
            )
        )
        out.append(
            record(
                s,
                "axis-split-sum",
                sum(c for _, c in table),
                _symmetry_classes(region, plain)[1],
                "sum of piece counts",
                "vsym",
            )
        )
        positions = tiler.axis_cut_positions(region)
        rank_of = {p: r for r, p in enumerate(positions)}
        bad = next(
            (
                chosen
                for chosen, cnt in table
                if paths.count_left_piece_via_det(spec, tuple(rank_of[p] for p in chosen)) != cnt
            ),
            None,
        )
        method = "piece determinants" if bad is None else f"piece determinants, first bad subset {bad!r}"
        out.append(
            record(s, "axis-split-determinants", int(bad is None), 1, method, "tiler piece counts")
        )
    return out


def check_contiguity() -> list[dict]:
    """Two adjacent side-2 hole pairs count like one side-4 pair with the
    same apex."""
    out = []
    for n, m, k in ((4, 1, 1), (6, 1, 1), (6, 1, 2), (6, 2, 1), (5, 1, 1)):
        spec = RegionSpec(n, m, (k, k + 1))
        two = tiler.count_plain(build_region(spec))
        merged = punch_symmetric_triangle_pair(build_hexagon(n, m), 2 * k - 2, 4)
        one = tiler.count_plain(merged)
        out.append(
            record(spec.text(), "contiguity", two, one, "two side-2 holes", "one side-4 hole")
        )
    return out


# ---------------------------------------------------------------------------
# matrix-level identities


def check_skew_matrix(specs: Sequence[RegionSpec]) -> list[dict]:
    """The closed-form skew matrix against the generic double-sum matrix,
    and (on tiny instances) the signed Pfaffian against brute-forced
    families, including the all-signs-equal claim."""
    out = []
    for spec in specs:
        if spec.central_x:
            continue
        s = spec.text()
        closed = paths.endline_skew_matrix(spec)
        starts = [paths.start_point(spec, lab) for lab in closed.row_labels]
        generic = paths.free_endpoint_pfaffian_matrix(starts, paths.cut_line_points(spec))
        out.append(_entries_record(s, "skew-matrix-entries", closed, generic, "closed form", "endpoint double sums"))
        if spec.n <= 3 and spec.m + spec.l <= 3:
            fam = paths.brute_force_endline_families(starts, paths.cut_line_points(spec))
            pf = pfaffian_elimination(closed)
            out.append(
                record(s, "skew-matrix-signed-count", fam.signed_total, pf, "brute families", "pfaffian")
            )
            sign = reduction.hole_sign(spec.l)
            out.append(
                record(
                    s,
                    "skew-matrix-sign-uniform",
                    int(fam.signs <= {sign}),
                    1,
                    "family permutation signs",
                    f"expected sign {sign}",
                )
            )
    return out


def check_lgv_matrix(specs: Sequence[RegionSpec]) -> list[dict]:
    """The closed-form LGV matrix against per-entry path generating
    functions, and (tiny instances) its determinant against brute-forced
    diagonal-confined weighted families."""
    out = []
    for spec in specs:
        if spec.central_x:
            continue
        s = spec.text()
        closed = paths.diagonal_lgv_matrix(spec)
        starts = paths.diagonal_start_points(spec)
        ends = paths.diagonal_end_points(spec)
        generic = paths.lgv_matrix(starts, ends)
        out.append(
            _entries_record(s, "lgv-matrix-entries", closed, generic, "closed form", "reflection generating functions")
        )
        if spec.n <= 3 and spec.m + spec.l <= 3:
            fam = paths.brute_force_fixed_families(starts, ends, diagonal=True)
            out.append(
                record(
                    s,
                    "lgv-matrix-det",
                    fam,
                    paths.count_weighted2_via_det(spec),
                    "brute weighted families",
                    "determinant",
                )
            )
    return out


def _certificate_record(spec: str, identity: str, cert: reduction.ReductionCertificate) -> dict:
    """The certificate's Pfaffian against its signed reduced determinant."""
    return record(spec, identity, cert.pfaffian, cert.sign * cert.reduced_det, "pfaffian", "sign*det(reduced)")


def check_reduction(trials: int = 200, seed: int = 7, m_max: int = 4, l_max: int = 2) -> list[dict]:
    """Seeded random structured-skew suite: the certificate must pass and the
    folded matrix must show the proven zero blocks exactly (both read off
    one reduction pass per trial)."""
    rng = random.Random(seed)
    out = []
    for trial in range(trials):
        m = rng.randint(1, m_max)
        l = rng.randint(0, l_max)
        a = reduction.random_structured(rng, m, l).to_matrix()
        cert = reduction.verify_pfaffian_reduction(a)
        name = f"random m={m} l={l} trial={trial}"
        out.append(_certificate_record(name, "reduction-certificate", cert))
        bad = cert.first_bad_fold_entry
        where = "" if bad is None else f", first bad entry {bad!r}"
        out.append(record(name, "fold-zero-blocks", int(bad is None), 1, f"folded matrix{where}", "expected"))
    return out


def check_reduction_chain(specs: Sequence[RegionSpec]) -> list[dict]:
    """On the spec matrices: the reduction certificate, then the
    first-difference transform of the reduced block must equal the
    diagonal LGV matrix entry for entry (including the block the closed
    form leaves implicit)."""
    out = []
    for spec in specs:
        if spec.central_x:
            continue
        s = spec.text()
        cert = reduction.verify_pfaffian_reduction(paths.endline_skew_matrix(spec))
        out.append(_certificate_record(s, "reduction-on-spec-matrix", cert))
        transformed = reduction.difference_transform(cert.reduced)
        target = paths.diagonal_lgv_matrix(spec)
        out.append(
            _entries_record(
                s,
                "difference-transform-eq-lgv",
                transformed,
                target,
                "difference transform of reduced block",
                "closed-form LGV matrix",
            )
        )
    return out


# ---------------------------------------------------------------------------
# closed forms


def check_box_product() -> list[dict]:
    """Total = transpose-complementary * symmetric for the 2a x b x b box:
    by formulas for a, b <= 3, and against all three tiler counts for
    a, b <= 2."""
    out = []
    for a in range(1, 4):
        for b in range(1, 4):
            n1 = closedforms.box_tilings(2 * a, b, b)
            n6 = closedforms.transpose_complement_box_tilings(a, b)
            n2 = closedforms.symmetric_box_tilings(b, 2 * a)
            out.append(
                record(f"box 2a={2*a} b={b}", "box-product", n1, n6 * n2, "total formula", "tc*sym formulas")
            )
            if a <= 2 and b <= 2:
                region = build_hexagon(b, a)
                s = f"box 2a={2*a} b={b}"
                plain = tiler.count_plain(region)
                hs, vs = _symmetry_classes(region, plain)
                out.append(record(s, "box-total-eq-tiler", n1, plain, "formula", "kasteleyn-det"))
                out.append(record(s, "box-sym-eq-tiler", n2, vs, "formula", "tiler vsym"))
                out.append(record(s, "box-tc-eq-tiler", n6, hs, "formula", "tiler hsym"))
    return out


# ---------------------------------------------------------------------------
# oracle coherence and polynomial profile


def check_oracles(specs: Sequence[RegionSpec]) -> list[dict]:
    """The counting engines against exhaustive enumeration wherever
    enumeration is feasible: the Kasteleyn determinant on the full region,
    the boundary-monomer Pfaffian and the weighted determinant on its free
    and weighted halves."""
    out = []
    for spec in specs:
        region = build_region(spec)
        plain = tiler.count_plain(region)
        s = spec.text()
        if tiler.enumerable(region, plain):
            out.append(
                record(s, "dp-eq-enumeration", plain, tiler.count_via_enumeration(region), "kasteleyn-det", "enumeration")
            )
        half = left_half_free(region)
        dp_free = tiler.count_free(half)
        if tiler.enumerable(half, dp_free):
            out.append(
                record(
                    s,
                    "dp-eq-enumeration-free",
                    dp_free,
                    tiler.count_via_enumeration(half),
                    "kasteleyn-pfaffian",
                    "enumeration",
                )
            )
        lower = lower_half_weighted(region)
        dp_w2 = tiler.count_weighted2(lower)
        if tiler.enumerable(lower, tiler.count_plain(lower)):
            out.append(
                record(
                    s,
                    "dp-eq-enumeration-weighted",
                    dp_w2,
                    tiler.weighted2_via_enumeration(lower),
                    "weighted kasteleyn-det",
                    "enumeration",
                )
            )
    return out


def polynomial_profile(n: int, m: int, x_max: int) -> dict:
    """Counts of the rhombus-hole region for x = 0..x_max with the forward
    difference table; reports the first order whose differences all vanish
    in the window (None if none does)."""
    if x_max < 0:
        raise ValueError(f"the window x = 0..{x_max} is empty")
    values = [
        tiler.count_plain(build_region(RegionSpec(n, m, (), x)))
        for x in range(x_max + 1)
    ]
    table = [values]
    while len(table[-1]) > 1:
        prev = table[-1]
        table.append([b - a for a, b in zip(prev, prev[1:])])
    vanish_order = None
    for order, diffs in enumerate(table):
        if diffs and all(d == 0 for d in diffs):
            vanish_order = order
            break
    return {
        "values": [str(v) for v in values],
        "vanish_order": vanish_order,
        "pass": vanish_order is not None,
    }


def check_polynomial(cases: Sequence[tuple[int, int, int]] = ((2, 1, 6), (4, 1, 11), (2, 2, 10))) -> list[dict]:
    out = []
    for n, m, x_max in cases:
        prof = polynomial_profile(n, m, x_max)
        out.append(
            record(
                f"n={n} m={m} x=0..{x_max}",
                "polynomial-in-x",
                int(prof["pass"]),
                1,
                f"differences vanish from order {prof['vanish_order']}",
                "finite window",
            )
        )
    return out


# ---------------------------------------------------------------------------
# suite registry


RHOMBUS_BOUNDS = dict(n_values=(2, 4), l_values=(0, 1), x_values=(1, 2, 3))
AXIS_SPLIT_BOUNDS = dict(n_values=(2,), m_values=(1,), l_values=(0,), x_values=(1, 2))


def _specs(grid: dict, **fallback) -> list[RegionSpec]:
    """Specs over the bounds grid names, then the suite's fallback bounds,
    then DEFAULT_GRID."""
    return iter_specs(**{**DEFAULT_GRID, **fallback, **grid})


# Suite name -> runner(grid, trials, seed), in `verify all` order.  The
# runners look each check_* function up when called, so a check rebound
# on this module (as by a tracer) is the one that runs.
SUITES = {
    "factorization": lambda grid, trials, seed: check_factorization(_specs(grid)),
    "halves": lambda grid, trials, seed: check_halves(_specs(grid)),
    "weighted-split": lambda grid, trials, seed: check_weighted_split(_specs(grid)),
    "pfaffian-determinant": lambda grid, trials, seed: check_pfaffian_determinant(_specs(grid)),
    "skew-matrix": lambda grid, trials, seed: check_skew_matrix(_specs(grid)),
    "lgv-matrix": lambda grid, trials, seed: check_lgv_matrix(_specs(grid)),
    "reduction": lambda grid, trials, seed: check_reduction(trials=trials, seed=seed),
    "reduction-chain": lambda grid, trials, seed: check_reduction_chain(_specs(grid)),
    "rhombus-factorization": lambda grid, trials, seed: check_rhombus_factorization(
        _specs(grid, **RHOMBUS_BOUNDS)
    ),
    "axis-split": lambda grid, trials, seed: check_axis_split(
        [spec for spec in _specs(grid, **AXIS_SPLIT_BOUNDS) if not spec.holes]
    ),
    "box-product": lambda grid, trials, seed: check_box_product(),
    "contiguity": lambda grid, trials, seed: check_contiguity(),
    "oracles": lambda grid, trials, seed: check_oracles(_specs(grid)),
    "polynomial": lambda grid, trials, seed: check_polynomial(),
}


def run_suite(name: str, *, grid: dict | None = None, trials: int = 200, seed: int = 7) -> list[dict]:
    """Run one named suite.  grid overrides the default instance bounds
    where a suite takes a grid."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](grid or {}, trials, seed)

"""Named identity suites run over instance grids.

Each suite checks one exact identity on a set of instances and returns one
record per checked equation: spec text, both sides as decimal strings, the
method that produced each side, and a pass flag.  The command line prints
these records; the acceptance tests assert on them.  All comparisons are
exact integer equality.  The tiling suites read their counts from each
spec's `Chain`, which computes every link of the identity chain once.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import closedforms, paths, reduction, tiler
from .intlinalg import LabeledMatrix, determinant, pfaffian_elimination
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


def _located_record(spec: str, identity: str, bad, method_lhs: str, method_rhs: str, what: str = "entry") -> dict:
    """1 = 1 when nothing is bad; otherwise lhs is 0 and method_lhs names
    the first bad entry (or subset)."""
    if bad is None:
        return record(spec, identity, 1, 1, method_lhs, method_rhs)
    return record(spec, identity, 0, 1, f"{method_lhs}, first bad {what} {bad!r}", method_rhs)


def _entries_record(
    spec: str, identity: str, lhs: LabeledMatrix, rhs: LabeledMatrix, method_lhs: str, method_rhs: str
) -> dict:
    """1 = 1 when the two matrices agree entry for entry; otherwise lhs is
    0 and method_lhs names the first differing entry, row by row, by the
    (row label, column label) of the lhs matrix."""
    bad = reduction.first_differing_entry(lhs, rhs)
    if bad is None and lhs.rows != rhs.rows:
        return record(spec, identity, 0, 1, f"{method_lhs}, shapes differ", method_rhs)
    return _located_record(spec, identity, bad, method_lhs, method_rhs)


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
# the identity chain of one region


def _oracle(enumeration: Callable[[Region], Any], region: Region, count: Callable[[], int]) -> Any:
    """enumeration(region) where the enumeration oracle reaches, else None;
    count() gives the region's tilings (see `tiler.enumerable`)."""
    return enumeration(region) if tiler.enumerable(region, count) else None


class Chain:
    """The identity chain of one spec: the region, its halves, the tiler's
    counts, the enumeration oracles, and the paths' Pfaffian, determinant
    and LGV routes.  Each link is a value, or None where its route does not
    reach.  The cached links read the region alone and are computed on
    first use, at most once; they live in the instance dict, the spec and
    `path_plain` in slots, so that the chains of two specs naming one
    region share the region's links (see `_chains`) and no link that reads
    the spec.  The other links that read the spec are uncached
    properties."""

    __slots__ = ("spec", "_path_plain", "__dict__")

    def __init__(self, spec: RegionSpec) -> None:
        self.spec = spec
        self._path_plain: int | None = None

    region = cached_property(lambda self: build_region(self.spec))
    upper = cached_property(lambda self: upper_half(self.region))
    free_half = cached_property(lambda self: left_half_free(self.region))
    lower = cached_property(lambda self: lower_half_weighted(self.region))
    plain = cached_property(lambda self: tiler.count_plain(self.region))
    upper_count = cached_property(lambda self: tiler.count_plain(self.upper))
    free = cached_property(lambda self: tiler.count_free(self.free_half))
    weighted = cached_property(lambda self: tiler.count_weighted2(self.lower))
    # the enumeration oracles, each None past its reach.  The region's reach
    # reads M from the whole region's LGV, the cheapest route to it; two
    # specs naming one region have the same M, so the reach stays a link of
    # the region.  Within it, `enumerated` enumerates every tiling, and the
    # symmetry classes enumerate only the tilings their reflection fixes
    reach = cached_property(lambda self: tiler.enumerable(self.region, lambda: self.path_plain))
    enumerated = cached_property(lambda self: tiler.count_via_enumeration(self.region) if self.reach else None)
    hsym_enumerated = cached_property(lambda self: self._fixed_enumerated(self.region.reflect_h))
    vsym_enumerated = cached_property(lambda self: self._fixed_enumerated(self.region.reflect_v))
    free_enumerated = cached_property(
        lambda self: _oracle(tiler.count_via_enumeration, self.free_half, lambda: self.free)
    )
    weighted_enumerated = cached_property(
        lambda self: _oracle(tiler.count_via_enumeration, self.lower, lambda: tiler.count_plain(self.lower))
    )
    # the paths' closed forms read the spec, and take no central rhombus
    pfaffian = property(lambda self: None if self.spec.central_x else paths.count_free_via_pfaffian(self.spec))
    determinant = property(lambda self: None if self.spec.central_x else paths.count_weighted2_via_det(self.spec))
    path_upper = property(lambda self: paths.count_upper_via_lgv(self.spec))

    # the symmetry classes by definition where enumerable, else by the halves
    hsym = property(lambda self: self.upper_count if (e := self.hsym_enumerated) is None else e)
    vsym = property(lambda self: self.free if (e := self.vsym_enumerated) is None else e)

    def _fixed_enumerated(self, ref: Callable) -> int | None:
        return tiler.count_fixed_via_enumeration(self.region, ref) if self.reach else None

    @property
    def path_plain(self) -> int:
        """M by the whole region's LGV, which reaches every spec.  The reach
        and the full class's check both read it, so it is computed once per
        chain and kept in a slot of the chain, not of the region."""
        if self._path_plain is None:
            self._path_plain = paths.count_plain_via_lgv(self.spec)
        return self._path_plain


def _chains(specs: Sequence[RegionSpec], chains: dict | None) -> Iterator[Chain]:
    """Each spec's chain.  A run table maps every spec and every region to
    the chain first made for it, and a new spec naming a known region (the
    side-2 rhombus of n, m, k, x=2 is the hole pair n/2 + 1 of the hexagon
    of side n + 2) shares that chain's cached links, which read the region
    alone; the links that read the spec are properties, so none is shared.
    Without a table, each spec gets a fresh chain, dropped after its loop
    step."""
    for spec in specs:
        chain = Chain(spec) if chains is None else chains.get(spec)
        if chain is None:
            chain = chains[spec] = Chain(spec)
            chain.__dict__ = chains.setdefault(chain.region, chain).__dict__
        yield chain


# class -> (the link that gives its value, its engine, the links that check
# it, read in order until one is not None, each by link == value)
COUNT_CLASSES = {
    "full": ("plain", "kasteleyn-det", ("enumerated", "path_plain")),
    "hsym": ("upper_count", "half-region kasteleyn-det", ("hsym_enumerated", "path_upper")),
    "vsym": ("free", "half-region kasteleyn-pfaffian", ("vsym_enumerated", "pfaffian", "free_enumerated")),
    "free-left": ("free", "kasteleyn-pfaffian", ("pfaffian", "free_enumerated")),
    "weighted-lower": ("weighted", "weighted kasteleyn-det", ("determinant", "weighted_enumerated")),
}


def count(spec: RegionSpec, cls: str) -> dict:
    """The count record of one class of one spec: its value, the engine
    behind it, and the verdict of the first check that reaches."""
    link, method, checks = COUNT_CLASSES[cls]
    chain = Chain(spec)
    value = getattr(chain, link)
    reached = (v for v in (getattr(chain, check) for check in checks) if v is not None)
    verdict = next((v == value for v in reached), None)
    crosscheck = {None: "skipped", True: "ok", False: "MISMATCH"}[verdict]
    rec = {"spec": spec.text(), "class": cls, "value": str(value), "method": method, "crosscheck": crosscheck}
    return {**rec, "pass": verdict is not False}


# ---------------------------------------------------------------------------
# tiling-level identities


def _factorization(specs: Sequence[RegionSpec], identity: str, chains: dict | None) -> list[dict]:
    """plain = hsym * vsym per spec, recorded under the given identity."""
    return [
        record(c.spec.text(), identity, c.plain, c.hsym * c.vsym, "kasteleyn-det", "hsym*vsym")
        for c in _chains(specs, chains)
    ]


def check_factorization(specs: Sequence[RegionSpec], chains: dict | None = None) -> list[dict]:
    """plain = hsym * vsym, all three by the tiler."""
    return _factorization(specs, "factorization", chains)


def check_rhombus_factorization(specs: Sequence[RegionSpec], chains: dict | None = None) -> list[dict]:
    """The factorization on regions with a central rhombus hole."""
    return _factorization(specs, "rhombus-factorization", chains)


def check_halves(specs: Sequence[RegionSpec], chains: dict | None = None) -> list[dict]:
    """The two cut equivalences, tested by definition (the tilings each
    reflection fixes, by mirror-constrained enumeration) against the
    half-region counts, on every instance within the enumeration reach."""
    out = []
    for c in _chains(specs, chains):
        if not c.reach:
            continue
        s, hsym, vsym = c.spec.text(), c.hsym_enumerated, c.vsym_enumerated
        out.append(record(s, "sym-eq-upper-half", hsym, c.upper_count, "enumeration-filter", "kasteleyn-det"))
        out.append(record(s, "sym-eq-free-half", vsym, c.free, "enumeration-filter", "kasteleyn-pfaffian"))
    return out


def check_weighted_split(specs: Sequence[RegionSpec], chains: dict | None = None) -> list[dict]:
    """plain = upper-half * free-half and plain = upper-half * weighted-lower
    (the integer form absorbing the power of two)."""
    out = []
    for c in _chains(specs, chains):
        s = c.spec.text()
        out.append(record(s, "split-free", c.plain, c.upper_count * c.free, "kasteleyn-det", "upper*free"))
        out.append(record(s, "split-weighted", c.plain, c.upper_count * c.weighted, "kasteleyn-det", "upper*weighted2"))
    return out


def check_pfaffian_determinant(specs: Sequence[RegionSpec], chains: dict | None = None) -> list[dict]:
    """The analytic core: signed Pfaffian = determinant, and each equals the
    corresponding tiler count."""
    out = []
    for c in _chains([spec for spec in specs if not spec.central_x], chains):
        s, pf, det = c.spec.text(), c.pfaffian, c.determinant
        out.append(record(s, "pfaffian-eq-det", pf, det, "signed-pfaffian", "determinant"))
        out.append(record(s, "pfaffian-eq-tiler", pf, c.free, "signed-pfaffian", "kasteleyn-pfaffian"))
        out.append(record(s, "det-eq-tiler", det, c.weighted, "determinant", "weighted kasteleyn-det"))
    return out


def check_axis_split(specs: Sequence[RegionSpec], chains: dict | None = None) -> list[dict]:
    """Per-subset split along the perpendicular axis: the squared counts sum
    to the plain count, the counts sum to the symmetric count, and each
    one-sided count is hole_sign(l) times its LGV determinant."""
    out = []
    for c in _chains(specs, chains):
        s = c.spec.text()
        table = tiler.split_by_axis(c.free_half)
        squares = sum(n * n for _, n in table)
        out.append(record(s, "axis-split-squares", squares, c.plain, "sum of squared piece counts", "kasteleyn-det"))
        out.append(record(s, "axis-split-sum", sum(n for _, n in table), c.vsym, "sum of piece counts", "vsym"))
        sign = reduction.hole_sign(c.spec.l)
        bad = next((r for r, cnt in table if sign * determinant(paths.left_piece_matrix(c.spec, r)) != cnt), None)
        out.append(_located_record(s, "axis-split-determinants", bad, "piece determinants", "tiler piece counts", "subset"))
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
        starts = [paths.start_point(spec, lab) for lab in closed.col_labels]
        ends = [paths.end_point(spec, lab) for lab in closed.row_labels]
        generic = paths.lgv_matrix(paths.reflectable_gf, starts, ends)
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
    """The certificate's Pfaffian against its signed reduced determinant;
    0 = 1, naming the first differing entry, when the reduced block read out
    of the fold differs from the one built from the structured data."""
    bad = cert.first_bad_reduced_entry
    if bad is not None:
        return _located_record(spec, identity, bad, "pfaffian, reduced blocks differ", "sign*det(reduced)")
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
        out.append(_located_record(name, "fold-zero-blocks", cert.first_bad_fold_entry, "folded matrix", "expected"))
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


def check_box_product(chains: dict | None = None) -> list[dict]:
    """Total = transpose-complementary * symmetric for the 2a x b x b box:
    by formulas for a, b <= 3, and against all three tiler counts for
    a, b <= 2, on the chain of the hexagon RegionSpec(b, a)."""
    out = []
    for a in range(1, 4):
        for b in range(1, 4):
            s = f"box 2a={2*a} b={b}"
            n1 = closedforms.box_tilings(2 * a, b, b)
            n6 = closedforms.transpose_complement_box_tilings(a, b)
            n2 = closedforms.symmetric_box_tilings(b, 2 * a)
            out.append(record(s, "box-product", n1, n6 * n2, "total formula", "tc*sym formulas"))
            if a <= 2 and b <= 2:
                (c,) = _chains([RegionSpec(b, a)], chains)
                out.append(record(s, "box-total-eq-tiler", n1, c.plain, "formula", "kasteleyn-det"))
                out.append(record(s, "box-sym-eq-tiler", n2, c.vsym, "formula", "tiler vsym"))
                out.append(record(s, "box-tc-eq-tiler", n6, c.hsym, "formula", "tiler hsym"))
    return out


# ---------------------------------------------------------------------------
# oracle coherence and polynomial profile


def check_oracles(specs: Sequence[RegionSpec], chains: dict | None = None) -> list[dict]:
    """The counting engines against exhaustive enumeration wherever
    enumeration is feasible: the Kasteleyn determinant on the full region,
    the boundary-monomer Pfaffian and the weighted determinant on its free
    and weighted halves."""
    out = []
    for c in _chains(specs, chains):
        s = c.spec.text()
        if c.enumerated is not None:
            out.append(record(s, "dp-eq-enumeration", c.plain, c.enumerated, "kasteleyn-det", "enumeration"))
        if c.free_enumerated is not None:
            out.append(
                record(s, "dp-eq-enumeration-free", c.free, c.free_enumerated, "kasteleyn-pfaffian", "enumeration")
            )
        if c.weighted_enumerated is not None:
            w2 = c.weighted_enumerated
            out.append(record(s, "dp-eq-enumeration-weighted", c.weighted, w2, "weighted kasteleyn-det", "enumeration"))
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


# Suite name -> runner(grid, trials, seed, chains), in `verify all` order.
# The runners look each check_* function up when called, so a check
# rebound on this module (as by a tracer) is the one that runs.
SUITES = {
    "factorization": lambda grid, trials, seed, chains: check_factorization(_specs(grid), chains),
    "halves": lambda grid, trials, seed, chains: check_halves(_specs(grid), chains),
    "weighted-split": lambda grid, trials, seed, chains: check_weighted_split(_specs(grid), chains),
    "pfaffian-determinant": lambda grid, trials, seed, chains: check_pfaffian_determinant(_specs(grid), chains),
    "skew-matrix": lambda grid, trials, seed, chains: check_skew_matrix(_specs(grid)),
    "lgv-matrix": lambda grid, trials, seed, chains: check_lgv_matrix(_specs(grid)),
    "reduction": lambda grid, trials, seed, chains: check_reduction(trials=trials, seed=seed),
    "reduction-chain": lambda grid, trials, seed, chains: check_reduction_chain(_specs(grid)),
    "rhombus-factorization": lambda grid, trials, seed, chains: check_rhombus_factorization(
        _specs(grid, **RHOMBUS_BOUNDS), chains
    ),
    "axis-split": lambda grid, trials, seed, chains: check_axis_split(_specs(grid, **AXIS_SPLIT_BOUNDS), chains),
    "box-product": lambda grid, trials, seed, chains: check_box_product(chains),
    "contiguity": lambda grid, trials, seed, chains: check_contiguity(),
    "oracles": lambda grid, trials, seed, chains: check_oracles(_specs(grid), chains),
    "polynomial": lambda grid, trials, seed, chains: check_polynomial(),
}


def run_suite(
    name: str, *, grid: dict | None = None, trials: int = 200, seed: int = 7, chains: dict | None = None
) -> list[dict]:
    """Run one named suite.  grid overrides the default instance bounds
    where a suite takes a grid.  chains is a run table (see `_chains`)
    that the suites of one run share; without it the suite builds and
    drops its own chains."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](grid or {}, trials, seed, chains)

"""Non-intersecting lattice paths behind the two half-region counts.

Tilings of the free-boundary half translate to families of monotone lattice
paths that may end anywhere on a cut line; the classical Pfaffian formula
of Okada and Stembridge turns that count into the Pfaffian of a skew matrix
with binomial-sum entries.  Tilings of the weighted lower half translate to
diagonal-confined families with a weight 2 per diagonal touch, which the
Lindstrom-Gessel-Viennot (LGV) lemma turns into a determinant.  This module
builds both matrices in closed form, builds the generic double-sum and LGV
matrices they specialize, and brute-forces small path families as an
independent oracle.  The weighted lattice DP that checks the closed form
`reflectable_gf` is in `tests/oracles.py`.

The lattice picture of a spec is three functions: `start_point` (a label's
start), `end_point` (that start mirrored through the cut line x + y = N + 1,
N = n + x the frame side) and `cut_line_points` (the cut line less the x
rhombus points, which no path reaches).  Two generic builders read it:
`free_endpoint_pfaffian_matrix` for ends anywhere on the cut line, and the
one LGV builder `lgv_matrix`, given a single-path count, for fixed ends,
which the axis split's `left_piece_matrix` feeds.

Two routes read the picture alone, with no closed form, so they reach
every spec, rhombus included: `count_plain_via_lgv`, the whole region's
count M as the LGV determinant of free paths from each start to its
mirror, the rhombus points (j, N+1-j), j = n/2+1 .. n/2+x, taken as
zero-length paths, and `count_upper_via_lgv`, the upper half's count M_h,
the same over the starts with x < y, its paths kept off x = y by the
reflection principle.  Both determinants are fraction-free
(`intlinalg.determinant`), with no modulus and no cap.

Conventions: points are (x, y) on the integer lattice, steps go right or
up.  A start on the cut line admits only the empty path, since steps
strictly increase x + y.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import prod
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .intlinalg import (
    LabeledMatrix,
    binomial,
    pfaffian_elimination,
    signed_range_sum,
    determinant,
)
from .reduction import (
    StructuredSkew,
    bridge_keys,
    endpoint_labels,
    hole_keys,
    hole_sign,
    parse_hole_label,
    reduced_labels,
)
from .regions import CapExceeded, RegionSpec

Point = tuple[int, int]

# most candidate path families a brute-force family oracle may combine
FAMILY_CAP = 2_000_000


# ---------------------------------------------------------------------------
# single-path counts


def free_path_count(a: Point, b: Point) -> int:
    """Monotone lattice paths from a to b; 0 when b is not weakly north-east."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    if dx < 0 or dy < 0:
        return 0
    return binomial(dx + dy, dx)


def reflectable_gf(a: Point, b: Point) -> int:
    """Closed form for the diagonal-touch generating function.

    Counts monotone paths a -> b that never cross above x = y, weighting
    each by 2^(number of diagonal touches).  Reflecting path segments at the
    touches identifies this with the number of *all* paths to b plus all
    paths to b's mirror image in x = y, whence the two binomials.
    """
    if a[0] <= a[1] or b[0] <= b[1]:
        raise ValueError("reflectable_gf needs strictly sub-diagonal endpoints")
    total = b[0] + b[1] - a[0] - a[1]
    if total < 0:
        return 0
    return binomial(total, b[0] - a[0]) + binomial(total, b[1] - a[0])


# ---------------------------------------------------------------------------
# generic matrices


def free_endpoint_pfaffian_matrix(
    starts: Sequence[Point], ipoints: Sequence[Point]
) -> LabeledMatrix:
    """Skew matrix Q of the free-endpoint family count: entry (i, j) is
    sum_{u<v} [P(s_i -> I_u) P(s_j -> I_v) - P(s_j -> I_u) P(s_i -> I_v)]
    over the ordered endpoint list.  Pf(Q) is the signed family count.

    Grouping the double sum by v gives, with the running sums
    B_i(v) = sum_{u<v} P(s_i -> I_u),

        Q[i][j] = sum_v [B_i(v) P(s_j -> I_v) - B_j(v) P(s_i -> I_v)],

    so the matrix costs O(k^2 N) products for k starts and N endpoints
    instead of O(k^2 N^2).  The definition is skew term by term, so only
    i < j is summed; (j, i) is its negative and the diagonal is 0.  Taking
    the running sums inclusive (u <= v) would change nothing: the added
    u = v terms P(s_i -> I_v) P(s_j -> I_v) cancel in pairs.
    """
    counts = [[free_path_count(s, e) for e in ipoints] for s in starts]
    below = [list(accumulate(row[:-1], initial=0)) for row in counts]
    k = len(starts)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            q = sum(map(mul, below[i], counts[j])) - sum(map(mul, below[j], counts[i]))
            rows[i][j] = q
            rows[j][i] = -q
    labels = list(range(k))
    return LabeledMatrix(labels, labels, rows)


def lgv_matrix(count: Callable, starts: Sequence[Point], ends: Sequence[Point]) -> LabeledMatrix:
    """LGV matrix of fixed-endpoint families: entry (i, j) is count(starts[j],
    ends[i]), the single-path count the family's paths are weighted by
    (`free_path_count`, or `reflectable_gf` for diagonal-confined paths with
    factor 2 per diagonal touch)."""
    rows = [[count(s, e) for s in starts] for e in ends]
    return LabeledMatrix(list(range(len(ends))), list(range(len(starts))), rows)


# ---------------------------------------------------------------------------
# the lattice picture of a spec


def start_point(spec: RegionSpec, label) -> Point:
    """Start point of the path attached to a label: (s, 1-s) for the
    integer labels, (k_t, k_t+1) / (k_t+1, k_t) for the hole labels t- / t+."""
    if isinstance(label, int):
        return (label, 1 - label)
    t, minus = parse_hole_label(label)
    k = spec.holes[t - 1]
    if minus:
        return (k, k + 1)
    return (k + 1, k)


def _mirror(spec: RegionSpec, point: Point) -> Point:
    """A point mirrored through the cut line x + y = N + 1, N = n + x:
    (a, b) -> (N+1-b, N+1-a)."""
    side = spec.frame_side
    return (side + 1 - point[1], side + 1 - point[0])


def end_point(spec: RegionSpec, label) -> Point:
    """End point of the path attached to a label: its start mirrored through
    the cut line."""
    return _mirror(spec, start_point(spec, label))


def _rhombus_columns(spec: RegionSpec) -> range:
    """The x columns j = n/2+1 .. n/2+x of the rhombus points (j, N+1-j)."""
    return range(spec.n // 2 + 1, spec.n // 2 + spec.central_x + 1)


def cut_line_points(spec: RegionSpec) -> list[Point]:
    """The ordered endpoint truncation (j, N+1-j), j = -m+1 .. N+m, less the
    x rhombus points, which no path reaches; widening it only adds
    unreachable points and changes nothing."""
    side, m, gap = spec.frame_side, spec.m, _rhombus_columns(spec)
    return [(j, side + 1 - j) for j in range(-m + 1, side + m + 1) if j not in gap]


# ---------------------------------------------------------------------------
# the whole region and its upper half as fixed-endpoint families


def _region_starts(spec: RegionSpec) -> list[Point]:
    """The starts of the whole region's paths: each endpoint label's start,
    then the rhombus points, each its own mirror, so a zero-length path that
    the others must avoid."""
    side = spec.frame_side
    labelled = [start_point(spec, lab) for lab in endpoint_labels(spec.m, spec.l)]
    return labelled + [(j, side + 1 - j) for j in _rhombus_columns(spec)]


def count_plain_via_lgv(spec: RegionSpec) -> int:
    """The whole region's tiling count M, as the LGV determinant of free
    paths from each start of `_region_starts` to its mirror."""
    starts = _region_starts(spec)
    return determinant(lgv_matrix(free_path_count, starts, [_mirror(spec, p) for p in starts]))


def _off_diagonal_path_count(a: Point, b: Point) -> int:
    """Monotone paths a -> b that never touch x = y, for a and b above it:
    by reflection, the paths that touch it are as many as all the paths from
    a's mirror image (a_y, a_x) to b."""
    return free_path_count(a, b) - free_path_count((a[1], a[0]), b)


def count_upper_via_lgv(spec: RegionSpec) -> int:
    """The upper half's tiling count M_h, as the LGV determinant of the
    paths of `_region_starts` that start above the diagonal (x < y), each
    to its mirror, counting only the paths that never touch x = y.  The
    variant that lets them touch it differs on nearly every spec."""
    starts = [p for p in _region_starts(spec) if p[0] < p[1]]
    return determinant(lgv_matrix(_off_diagonal_path_count, starts, [_mirror(spec, p) for p in starts]))


# ---------------------------------------------------------------------------
# the two closed-form matrices of a spec


def endline_skew_matrix(spec: RegionSpec) -> LabeledMatrix:
    """Closed form of the free-endpoint skew matrix for a spec.

    Only the free entries of `StructuredSkew` are computed, as signed
    binomial sums (read with signed_range_sum): the band x_d, the bridge y
    over `bridge_keys` and the hole block z over `hole_keys` (0 on
    plus/plus); `StructuredSkew` fills in the rest.  The signed Pfaffian
    equals the free-boundary half-region count.  Agrees entrywise with
    free_endpoint_pfaffian_matrix on the truncated cut line.
    """
    if spec.central_x:
        raise ValueError("endline_skew_matrix needs a rhombus-free spec")
    n, m, l, ks = spec.n, spec.m, spec.l, spec.holes
    band = tuple(
        signed_range_sum(lambda r: binomial(2 * n, n + r), 1 - d, d) for d in range(1, 2 * m)
    )

    def y(i: int, label: str) -> int:
        t, minus = parse_hole_label(label)
        k = ks[t - 1]
        bridge = lambda r: binomial(2 * n - 2 * k, n - k + r)
        return signed_range_sum(bridge, i + 1, -i) if minus else signed_range_sum(bridge, i, 1 - i)

    def z(a: str, b: str) -> int:
        (t, minus), (s, _) = parse_hole_label(a), parse_hole_label(b)
        top = n - ks[t - 1] - ks[s - 1]
        return binomial(2 * top, top) + binomial(2 * top, top + 1) if minus else 0

    free_y = {key: y(*key) for key in bridge_keys(m, l)}
    return StructuredSkew(m, l, band, free_y, {key: z(*key) for key in hole_keys(l)}).to_matrix()


def count_free_via_pfaffian(spec: RegionSpec) -> int:
    """The free-boundary half count as (-1)^C(l,2) Pf of the closed form."""
    return hole_sign(spec.l) * pfaffian_elimination(endline_skew_matrix(spec))


def diagonal_lgv_matrix(spec: RegionSpec) -> LabeledMatrix:
    """Closed form of the diagonal-confined LGV matrix for a spec; its
    determinant is the weighted lower-half integer count."""
    if spec.central_x:
        raise ValueError("diagonal_lgv_matrix needs a rhombus-free spec")
    n, m, ks = spec.n, spec.m, spec.holes
    labels = reduced_labels(m, spec.l)[1]

    def entry(i, j) -> int:
        i_int = isinstance(i, int)
        j_int = isinstance(j, int)
        if i_int and j_int:
            return binomial(2 * n, n + j - i) + binomial(2 * n, n - i - j + 1)
        if i_int or j_int:
            pos = i if i_int else j
            k = ks[parse_hole_label(j if i_int else i)[0] - 1]
            base = 2 * n - 2 * k
            return binomial(base, n - k - pos + 1) + binomial(base, n - k - pos)
        kt = ks[parse_hole_label(i)[0] - 1]
        kst = ks[parse_hole_label(j)[0] - 1]
        base = 2 * n - 2 * kt - 2 * kst
        top = n - kt - kst
        return binomial(base, top) + binomial(base, top - 1)

    return LabeledMatrix.build(labels, labels, entry)


def count_weighted2_via_det(spec: RegionSpec) -> int:
    return determinant(diagonal_lgv_matrix(spec))


# ---------------------------------------------------------------------------
# brute-force family oracles


def _monotone_paths(a: Point, b: Point, diagonal: bool) -> Iterator[tuple[Point, ...]]:
    if b[0] < a[0] or b[1] < a[1]:
        return
    if diagonal and (a[0] < a[1] or b[0] < b[1]):
        return

    def rec(prefix: list[Point]) -> Iterator[tuple[Point, ...]]:
        x, y = prefix[-1]
        if (x, y) == b:
            yield tuple(prefix)
            return
        if x < b[0]:
            prefix.append((x + 1, y))
            yield from rec(prefix)
            prefix.pop()
        if y < b[1] and (not diagonal or y + 1 <= x):
            prefix.append((x, y + 1))
            yield from rec(prefix)
            prefix.pop()

    yield from rec([a])


def _path_weight(path: tuple[Point, ...], diagonal: bool) -> int:
    if not diagonal:
        return 1
    touches = sum(1 for (x, y) in path if x == y)
    return 2**touches


class EndlineFamilies(NamedTuple):
    """Brute-force tally of vertex-disjoint families with endpoints chosen
    from an ordered set: the sign-weighted count and the set of
    assignment-permutation signs that occurred."""

    signed_total: int
    signs: frozenset[int]


def _disjoint_families(options: Iterable[list[tuple]]) -> Iterator[tuple]:
    """Each way to pick one candidate per start such that no two picked
    paths share a point, as the tuple of the picked candidates' tags.

    `options` yields, start by start, the list of (tag, path) candidates;
    a start with no candidate ends the search with nothing picked, and so
    does a product of list lengths past FAMILY_CAP, by CapExceeded."""
    candidates = []
    combos = 1
    for opts in options:
        combos *= max(len(opts), 1)
        if combos > FAMILY_CAP:
            raise CapExceeded(f"more than {FAMILY_CAP} candidate families")
        if not opts:
            return
        candidates.append(opts)

    used: set[Point] = set()

    def rec(idx: int, tags: tuple) -> Iterator[tuple]:
        if idx == len(candidates):
            yield tags
            return
        for tag, path in candidates[idx]:
            if any(v in used for v in path):
                continue
            used.update(path)
            yield from rec(idx + 1, tags + (tag,))
            used.difference_update(path)

    yield from rec(0, ())


def brute_force_endline_families(
    starts: Sequence[Point],
    ipoints: Sequence[Point],
) -> EndlineFamilies:
    """Enumerate non-intersecting families where each path runs from its
    start to some point of the ordered endpoint list.

    The permutation sign of a family is (-1)^(inversions of its endpoint
    indices read in start order); the signed total equals the Pfaffian of
    free_endpoint_pfaffian_matrix.  A path contains its end, so disjoint
    paths end at distinct points.
    """
    options = (
        [(u, path) for u, e in enumerate(ipoints) for path in _monotone_paths(s, e, diagonal=False)]
        for s in starts
    )
    signed_total = 0
    signs: set[int] = set()
    for chosen_ends in _disjoint_families(options):
        inversions = sum(
            1
            for a, b in combinations(chosen_ends, 2)
            if a > b
        )
        sign = -1 if inversions % 2 else 1
        signs.add(sign)
        signed_total += sign
    return EndlineFamilies(signed_total, frozenset(signs))


def brute_force_fixed_families(
    starts: Sequence[Point],
    ends: Sequence[Point],
    diagonal: bool = False,
) -> int:
    """Weighted count of non-intersecting families with path i running from
    starts[i] to ends[i] (the LGV setting)."""
    options = (
        [(_path_weight(path, diagonal), path) for path in _monotone_paths(s, e, diagonal)]
        for s, e in zip(starts, ends, strict=True)
    )
    return sum(prod(weights) for weights in _disjoint_families(options))


# ---------------------------------------------------------------------------
# the split along the perpendicular axis, as determinants


def left_piece_matrix(spec: RegionSpec, chosen_ranks: Sequence[int]) -> LabeledMatrix:
    """LGV matrix whose determinant, times `hole_sign(l)`, counts tilings of
    the left piece when the bisected slots at the given ranks (0-based along
    the axis) carry the forced lozenges of the set S.

    The paths start at the spec's start points.  The slots are the cut line
    points that are not starts, ranked left to right; the ends are the
    unchosen slots and the starts on the cut line (the hole k = n/2 when
    x = 0, two zero-length paths), in cut line order."""
    starts = [start_point(spec, lab) for lab in endpoint_labels(spec.m, spec.l)]
    cut = cut_line_points(spec)
    slots = [p for p in cut if p not in starts]
    chosen = {slots[r] for r in chosen_ranks if 0 <= r < len(slots)}
    need = len(cut) - len(starts)
    if not len(chosen_ranks) == len(chosen) == need:
        raise ValueError(f"need {need} distinct ranks below {len(slots)}")
    return lgv_matrix(free_path_count, starts, [p for p in cut if p not in chosen])

"""Ground-truth lozenge-tiling counts.

Two kinds of engine, on arbitrary-precision integers:

* Kasteleyn matrices, eliminated modulo the smallest prime of
  `intlinalg.KASTELEYN_PRIMES` above twice a bound on the value taken,
  which `intlinalg.exact` reads back exactly.  A tiling is a perfect
  matching between the region's up and down triangles, so with K the
  up/down adjacency matrix, rows and columns in row-major order and
  signed by one line per missing triangle (see `_Frame`):
  - `count_plain` is |det K|, by `intlinalg.det_mod_sparse` under K's
    Hadamard bound;
  - `count_weighted2` is |det K| with entry 2 on each horizontal edge of a
    special triangle (Kasteleyn's theorem holds for any positive edge
    weights);
  - `count_free` is |Pf A| for the boundary-monomer matrix A below
    (Giuliani, Jauslin and Lieb, J. Stat. Phys. 2016), the graph form of
    the free-endpoint Pfaffian of `paths`, by sparse skew elimination
    (`intlinalg.pfaffian_mod_sparse`) under the square root of A's
    Hadamard bound, since Pf(A)^2 = det A.
  Each is polynomial in the region size, and each assembles its matrix
  from `_frame`, the region's frame laid out once per call as integers.
* exhaustive backtracking enumeration (the oracles, capped): plain and
  weighted counts by enumerating every tiling, and the tilings a
  reflection fixes by definition, by a mirror-constrained enumeration
  that places each tile with its image, so that it visits only the fixed
  tilings.

A free up triangle may be left to a half lozenge, an unmatched vertex of
the matching.  A is skew, on every triangle plus a pad vertex z when their
number is odd, labelled ups first, then downs, each in row-major order,
and z last (a relabelling changes only the sign of Pf A, and ups first
makes the elimination faster): A[u, d] = K[u, d] = -A[d, u] for an up u
and a down d, and among the free ups f_0, f_1, ..., taken left to right
with z last, A[f_r, f_s] = (-1)^(r+s) for r < s.  Why these signs are
uniform: expand Pf A over the set S of free ups (and z) that a term leaves
to the free block.  Every present up triangle of the cut row is free, and
the cut row is the region's last, so the free ups sit together at the end
of the row-major up order, on the outer face.  Moving S behind the other
vertices then costs a sign that cancels the free block's own Pfaffian,
(-1)^(sum of the ranks in S), up to a factor fixed by |S|, which is the
same for every term (the ups outnumber the downs by |S|).  So Pf A =
+-sum over S of det K_{-S}, K without the rows of S.  Each K_{-S} is still
Kasteleyn-signed, as the removed vertices lie on the outer face, and det
K_{-S} has the same sign for every S.  That last step is checked, not
proved: it holds on every region the tests compare with the profile DP
of `tests/oracles.py`, and fails where a free up lacks a row neighbour (a hole opening onto the
cut through a down triangle), a layout `_free_ups` refuses.

The symmetry classes have no engine of their own.  M_h, the tilings fixed
by reflect_h, is `count_plain(upper_half(region))`: such a tiling places a
horizontal lozenge on every surviving axis position.  M_v, those fixed by
reflect_v, is `count_free(left_half_free(region))`.

A tile is a sorted tuple of one or two triangles: two for a lozenge, one
for a half lozenge protruding across a free edge.  A tiling is a frozenset
of tiles covering every triangle of the region exactly once.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations
from typing import Callable, Iterator, NamedTuple, Sequence

from .intlinalg import det_mod_sparse, exact, hadamard_bound, pfaffian_mod_sparse
from .regions import CapExceeded, Region, Triangle

Tile = tuple[Triangle, ...]
Tiling = frozenset

# the reach of the enumeration oracle: `enumerable` admits a region with at
# most ENUM_LIMIT tilings and TRIANGLE_CAP triangles, and `enumerate_tilings`
# refuses anything past either
ENUM_LIMIT = 50_000
TRIANGLE_CAP = 200


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_tilings(region: Region) -> Iterator[Tiling]:
    """Yield every tiling exactly once, in a deterministic order.

    Branches on the lexicographically least uncovered triangle; at each
    branch the options are tried in the fixed order horizontal pair,
    vertical pair, half lozenge.  Raises CapExceeded on a region of more
    than TRIANGLE_CAP triangles or once more than ENUM_LIMIT tilings exist.
    """
    if len(region.triangles) > TRIANGLE_CAP:
        raise CapExceeded(
            f"region has {len(region.triangles)} triangles, cap is {TRIANGLE_CAP}"
        )
    triangles, free = region.triangles, region.free
    order = sorted(triangles)
    # each up triangle's vertical partner, looked up once per region
    below = {t: region.vertical_partner(t) for t in order if region.is_up(t)}
    covered: set[Triangle] = set()
    tiles: list[Tile] = []
    emitted = 0

    def extend(idx: int) -> Iterator[Tiling]:
        nonlocal emitted
        while idx < len(order) and order[idx] in covered:
            idx += 1
        if idx == len(order):
            emitted += 1
            if emitted > ENUM_LIMIT:
                raise CapExceeded(f"more than {ENUM_LIMIT} tilings")
            yield frozenset(tiles)
            return
        t = order[idx]
        i, p = t
        right = (i, p + 1)
        if right in triangles and right not in covered:
            covered.add(t)
            covered.add(right)
            tiles.append((t, right))
            yield from extend(idx + 1)
            tiles.pop()
            covered.discard(t)
            covered.discard(right)
        if t in below:
            v = below[t]
            if v is not None and v in triangles and v not in covered:
                covered.add(t)
                covered.add(v)
                tiles.append((t, v))
                yield from extend(idx + 1)
                tiles.pop()
                covered.discard(t)
                covered.discard(v)
            if t in free:
                covered.add(t)
                tiles.append((t,))
                yield from extend(idx + 1)
                tiles.pop()
                covered.discard(t)

    yield from extend(0)


def enumerable(region: Region, count: Callable[[], int]) -> bool:
    """May the region be enumerated as an oracle: at most TRIANGLE_CAP
    triangles and ENUM_LIMIT tilings?  `count()` gives its tilings, and is
    called only within the triangle cap, so no region past it is counted."""
    return len(region.triangles) <= TRIANGLE_CAP and count() <= ENUM_LIMIT


def count_via_enumeration(region: Region) -> int:
    """Sum over tilings of 2^(number of special positions not covered by
    their own axis lozenge): the plain count on a region without special
    positions, the integer form of the half-weight count on the weighted
    half.  The axis lozenges are worked out once per region."""
    axis_tiles = [tuple(sorted((s, region.vertical_partner(s)))) for s in region.special]
    return sum(2 ** sum(tile not in tiling for tile in axis_tiles) for tiling in enumerate_tilings(region))


def count_fixed_via_enumeration(region: Region, ref: Callable[[Triangle], Triangle]) -> int:
    """The tilings fixed by ref (reflect_h or reflect_v), by definition, at
    a cost that scales with them rather than with all tilings.

    Backtracks like `enumerate_tilings`, on the least uncovered triangle
    with the same options in the same order, but places each option
    together with its mirror image: once when the tile is its own image,
    otherwise both, and never when the image overlaps the tile or either
    touches a covered triangle.  ref maps the region onto itself, so every
    placement keeps the covered triangles a union of mirror pairs, and each
    fixed tiling is found exactly once.  The region is never cut along an
    axis, so the count is independent of the half-region engines.  Raises
    ValueError on a region ref does not fix, CapExceeded on one of more than
    TRIANGLE_CAP triangles or once more than ENUM_LIMIT fixed tilings exist.
    """
    if len(region.triangles) > TRIANGLE_CAP:
        raise CapExceeded(
            f"region has {len(region.triangles)} triangles, cap is {TRIANGLE_CAP}"
        )
    if not region.is_symmetric(ref):
        raise ValueError("the mirror-constrained enumeration needs a region fixed by the reflection")
    triangles, free = region.triangles, region.free
    order = sorted(triangles)
    # each triangle's options as the cells a tile and its image cover, tile
    # first; an image overlapping its tile gives repeated cells, no option
    moves: dict[Triangle, list[Tile]] = {}
    for t in order:
        i, p = t
        options = [(t, (i, p + 1))] if (i, p + 1) in triangles else []
        if region.is_up(t):
            v = region.vertical_partner(t)
            if v is not None and v in triangles:
                options.append((t, v))
            if t in free:
                options.append((t,))
        moves[t] = []
        for tile in options:
            image = tuple(sorted(map(ref, tile)))
            cells = tile if image == tile else tile + image
            if len(set(cells)) == len(cells):
                moves[t].append(cells)
    covered: set[Triangle] = set()
    fixed = 0

    def extend(idx: int) -> None:
        nonlocal fixed
        while idx < len(order) and order[idx] in covered:
            idx += 1
        if idx == len(order):
            fixed += 1
            if fixed > ENUM_LIMIT:
                raise CapExceeded(f"more than {ENUM_LIMIT} fixed tilings")
            return
        for cells in moves[order[idx]]:
            if covered.isdisjoint(cells):
                covered.update(cells)
                extend(idx + 1)
                covered.difference_update(cells)

    extend(0)
    return fixed


# ---------------------------------------------------------------------------
# Kasteleyn matrices


class _Frame(NamedTuple):
    """A region's frame laid out as integers, once per engine call.

    Frame cell (i, p) is number offsets[i] + p, and one padding cell sits
    before each row and after the last, so a row neighbour past either
    end of a row is a padding cell.  `cell` maps a frame cell to the index
    of its present triangle in row-major order, -1 for a missing or
    padding cell.  The other lists run over the present triangles: `at` is
    the frame cell, `up` the orientation, `left`/`right` the row
    neighbours and `below` an up triangle's vertical partner (-1 for a down
    triangle, and where the partner is absent).

    `flipped` holds the up triangles whose vertical edge the Kasteleyn
    signing negates.  With every edge +1, a face of the region's graph
    meets Kasteleyn's cycle rule exactly when it encloses an even number of
    missing triangles, so each face needs as many negated edges, mod 2, as
    missing triangles inside it.  From each missing frame triangle t a line
    runs right along the lattice line of t's horizontal edge, out of the
    frame, negating each edge it crosses.  It starts at the midpoint of
    that edge, which no graph edge crosses, t being missing, and the only
    graph edges that cross a lattice line are the vertical edges of its
    pairs, the ups of the row above with the downs below them.  So the line
    crosses a face's boundary an odd number of times exactly when t lies
    inside the face.  Along a lattice line, a pair with one triangle
    missing starts a line, one with both missing starts two, which cancel,
    and one with both present is negated when an odd number of lines start
    left of it.  A triangle with its horizontal edge on the frame's top or
    bottom edge lies on the outer face and needs no line."""

    lens: list[int]
    offsets: list[int]
    cell: list[int]
    at: list[int]
    up: list[bool]
    left: list[int]
    right: list[int]
    below: list[int]
    flipped: set[int]


def _frame(region: Region) -> _Frame:
    side, rows = region.side, region.num_rows
    lens = [region.row_len(i) for i in range(rows)]
    offsets = list(accumulate((w + 1 for w in lens), initial=1))
    at = sorted([offsets[i] + p for i, p in region.triangles])
    cell = [-1] * offsets[-1]
    for j, f in enumerate(at):
        cell[f] = j
    # every row has odd length, so every offset is odd: the up cells have
    # odd numbers in the upper rows and even numbers in the lower rows
    lower_start = offsets[side]
    up = [(f + (f >= lower_start)) % 2 == 1 for f in at]
    beneath = [-1] * len(cell)  # up cell -> index of its vertical partner
    flipped: set[int] = set()
    for i in range(rows - 1):
        first, end = offsets[i] + (i >= side), offsets[i] + lens[i]
        # the partner is in the next row, shifted by half the length change
        start = first + offsets[i + 1] - offsets[i] + (lens[i + 1] - lens[i]) // 2
        ups, downs = cell[first:end:2], cell[start : start + end - first : 2]
        beneath[first:end:2] = downs
        odd = False  # an odd number of lines start left of the pair
        for u, d in zip(ups, downs):
            if (u < 0) != (d < 0):
                odd = not odd
            elif odd and u >= 0:
                flipped.add(u)
    below = [beneath[f] for f in at]
    left = [cell[f - 1] for f in at]
    right = [cell[f + 1] for f in at]
    return _Frame(lens, offsets, cell, at, up, left, right, below, flipped)


def _up_edges(
    region: Region, frame: _Frame, weighted: bool, column: Sequence[int]
) -> list[tuple[int, dict[int, int]]]:
    """Each up triangle's Kasteleyn-signed edges to its down neighbours,
    as (up index, {column[down index]: weight}), ups in row-major order.
    An edge weighs 1, the vertical edge of an up in `frame.flipped` -1, and
    with `weighted` each horizontal edge of a special triangle 2; the axis
    lozenge's vertical edge keeps weight 1."""
    cell, offsets, flipped = frame.cell, frame.offsets, frame.flipped
    special = {cell[offsets[i] + p] for i, p in region.special} if weighted else set()
    edges = []
    for j, (is_up, left, right, below) in enumerate(zip(frame.up, frame.left, frame.right, frame.below)):
        if not is_up:
            continue
        w = 2 if j in special else 1
        row = {}
        if left >= 0:
            row[column[left]] = w
        if right >= 0:
            row[column[right]] = w
        if below >= 0:
            row[column[below]] = -1 if j in flipped else 1
        edges.append((j, row))
    return edges


def _count_det(region: Region, weighted: bool) -> int:
    """|det K|, K with a row per up and a column per down triangle, both in
    row-major order, so it is banded: an up's vertical partner sits about
    half a frame row off its diagonal position."""
    frame = _frame(region)
    # a down's column is its rank among the downs: its index less the ups before it
    column = [j - ups for j, ups in enumerate(accumulate(frame.up, initial=0))]
    edges = _up_edges(region, frame, weighted, column)
    if 2 * len(edges) != len(frame.at):
        return 0
    rows = [row for _, row in edges]
    return abs(exact(det_mod_sparse, rows, hadamard_bound(rows)))


def count_plain(region: Region) -> int:
    """Number of lozenge tilings (no half lozenges, no weights), as |det K|."""
    return _count_det(region, weighted=False)


def count_weighted2(region: Region) -> int:
    """The integer 2^(#specials) * (half-weight count): every special axis
    position not covered by its axis lozenge contributes a factor 2.  It is
    |det K| with weight 2 on each horizontal edge of a special triangle,
    since each of them pairs the special triangle off its axis lozenge."""
    return _count_det(region, weighted=True)


def _free_ups(region: Region) -> list[Triangle]:
    """The free triangles left to right, once checked to be laid out as the
    boundary-monomer Pfaffian needs (see the module docstring): exactly the
    up triangles of the region's last row, each with both of its horizontal
    neighbours present where the frame row has them."""
    if not region.free:
        return []
    cut = max(i for i, _ in region.triangles)
    ups = sorted(t for t in region.triangles if t[0] == cut and region.is_up(t))
    if region.free != set(ups) or any(
        (cut, p + d) not in region.triangles
        for _, p in ups
        for d in (-1, 1)
        if 0 <= p + d < region.row_len(cut)
    ):
        raise ValueError(
            "free edges must be the lower edges of every up triangle of the "
            "region's last row, and those triangles' row neighbours present"
        )
    return ups


def count_free(region: Region) -> int:
    """Tilings with half lozenges allowed on the region's free edges, as
    |Pf A| for the boundary-monomer matrix A of the module docstring."""
    frame = _frame(region)
    count = len(frame.at)
    size = count + count % 2  # the pad vertex z, when the order is odd
    # the ups take the first labels, then the downs, each in row-major order
    before = list(accumulate(frame.up, initial=0))  # the ups before each index
    label = [b if is_up else before[-1] + j - b for j, (b, is_up) in enumerate(zip(before, frame.up))]
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    for j, row in _up_edges(region, frame, False, label):
        u = label[j]
        rows[u] = row
        for d, w in row.items():
            rows[d][u] = -w
    free = [label[frame.cell[frame.offsets[i] + p]] for i, p in _free_ups(region)] + list(range(count, size))
    for r, s in combinations(range(len(free)), 2):
        sign = -1 if (r + s) % 2 else 1
        rows[free[r]][free[s]] = sign
        rows[free[s]][free[r]] = -sign
    # Pf(A)^2 = det A, so |Pf A| is at most the square root of Hadamard's bound
    return abs(exact(pfaffian_mod_sparse, rows, math.isqrt(hadamard_bound(rows))))


# ---------------------------------------------------------------------------
# splitting along the perpendicular axis


def split_by_axis(free_half: Region) -> list[tuple[tuple[int, ...], int]]:
    """The free half cut at its slots, slot set by slot set.

    The slots are the free ups, `_free_ups(free_half)`, ranked left to
    right.  A tiling leaves a half lozenge on exactly k of them, k the
    excess of the half's up triangles over its down triangles.  For each
    k-subset S of the ranks, N(S) is `count_plain` of the half less the
    triangles of S, which leaves no half lozenge.  The region's tilings
    crossing the cut on S pair a tiling of each side, so the plain count
    is the sum of the N(S)^2 and the reflect_v-symmetric count the sum of
    the N(S).  Returns (S, N(S)) pairs in lexicographic S order.
    """
    slots = _free_ups(free_half)
    k = 2 * sum(map(free_half.is_up, free_half.triangles)) - len(free_half.triangles)
    return [
        (ranks, count_plain(free_half._replace(triangles=free_half.triangles - {slots[r] for r in ranks})))
        for ranks in combinations(range(len(slots)), k)
    ]

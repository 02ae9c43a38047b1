"""Ground-truth lozenge-tiling counts.

Three engines, each serving one kind of count, all on arbitrary-precision
integers:

* the Kasteleyn determinant (`count_plain`): a tiling is a perfect matching
  between the region's up and down triangles, so the plain count is
  |det K| for a Kasteleyn-signed up/down adjacency matrix K.  Sparse exact
  elimination makes it polynomial in the region size.
* the broken-profile dynamic program (`count_free`, `count_weighted2`): it
  honors free boundaries (half lozenges) and half-weight axis positions,
  which the determinant does not.  It sweeps cell by cell and merges equal
  partial states after every cell, so its cost is set by the number of
  merged states per cell, not by the completions of a row; that number
  can still grow exponentially with the row width.  With no free edges it
  counts plain tilings, which makes it the tests' oracle for the
  determinant.
* exhaustive backtracking enumeration (the oracles, capped): plain and
  weighted counts, and both symmetry classes by definition, from one
  enumeration that keeps the tilings each reflection fixes.

The symmetry classes have no engine of their own: `count_hsym` is the plain
count of the upper half and `count_vsym` the free count of the left half.

A tile is a sorted tuple of one or two triangles: two for a lozenge, one
for a half lozenge protruding across a free edge.  A tiling is a frozenset
of tiles covering every triangle of the region exactly once.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from itertools import combinations
from typing import Iterator

from .intlinalg import det_mod_sparse
from .regions import (
    CapExceeded,
    Region,
    RegionSpec,
    Triangle,
    build_region,
    check_width,
    left_half_free,
    upper_half,
)

Tile = tuple[Triangle, ...]
Tiling = frozenset

DEFAULT_ENUM_CAP = 1_000_000
DEFAULT_TRIANGLE_CAP = 200
# Mersenne primes the Kasteleyn determinant is reduced modulo, smallest first
KASTELEYN_PRIMES = tuple(2**e - 1 for e in (521, 1279, 2203, 4423))


class EnumerationCapExceeded(CapExceeded):
    pass


def enum_cap_default() -> int:
    return int(os.environ.get("HEXHOLES_ENUM_CAP", DEFAULT_ENUM_CAP))


def triangle_cap_default() -> int:
    return int(os.environ.get("HEXHOLES_TRIANGLE_CAP", DEFAULT_TRIANGLE_CAP))


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_tilings(
    region: Region,
    enum_cap: int | None = None,
    triangle_cap: int | None = None,
) -> Iterator[Tiling]:
    """Yield every tiling exactly once, in a deterministic order.

    Branches on the lexicographically least uncovered triangle; at each
    branch the options are tried in the fixed order horizontal pair,
    vertical pair, half lozenge.  Raises EnumerationCapExceeded when more
    than enum_cap tilings exist.
    """
    cap = enum_cap_default() if enum_cap is None else enum_cap
    tri_cap = triangle_cap_default() if triangle_cap is None else triangle_cap
    if len(region.triangles) > tri_cap:
        raise EnumerationCapExceeded(
            f"region has {len(region.triangles)} triangles, cap is {tri_cap}"
        )
    order = sorted(region.triangles)
    covered: set[Triangle] = set()
    tiles: list[Tile] = []
    emitted = 0

    def extend(idx: int) -> Iterator[Tiling]:
        nonlocal emitted
        while idx < len(order) and order[idx] in covered:
            idx += 1
        if idx == len(order):
            emitted += 1
            if emitted > cap:
                raise EnumerationCapExceeded(f"more than {cap} tilings")
            yield frozenset(tiles)
            return
        t = order[idx]
        i, p = t
        right = (i, p + 1)
        if right in region.triangles and right not in covered:
            covered.add(t)
            covered.add(right)
            tiles.append((t, right))
            yield from extend(idx + 1)
            tiles.pop()
            covered.discard(t)
            covered.discard(right)
        if region.is_up(t):
            v = region.vertical_partner(t)
            if v is not None and v in region.triangles and v not in covered:
                covered.add(t)
                covered.add(v)
                tiles.append((t, v))
                yield from extend(idx + 1)
                tiles.pop()
                covered.discard(t)
                covered.discard(v)
            if t in region.free:
                covered.add(t)
                tiles.append((t,))
                yield from extend(idx + 1)
                tiles.pop()
                covered.discard(t)

    yield from extend(0)


def enumerable(region: Region, count: int, limit: int) -> bool:
    """May a region with `count` tilings be enumerated as an oracle: at most
    `limit` tilings and no more triangles than the triangle cap?"""
    return count <= limit and len(region.triangles) <= triangle_cap_default()


def count_via_enumeration(region: Region) -> int:
    return sum(1 for _ in enumerate_tilings(region))


def weighted2_via_enumeration(region: Region) -> int:
    """Sum over tilings of 2^(number of special positions not covered by
    their own axis lozenge); the integer form of the half-weight count."""
    total = 0
    for tiling in enumerate_tilings(region):
        weight = 1
        for s in region.special:
            axis_tile = tuple(sorted((s, region.vertical_partner(s))))
            if axis_tile not in tiling:
                weight *= 2
        total += weight
    return total


def symmetric_via_enumeration(region: Region) -> tuple[int, int]:
    """(tilings fixed by reflect_h, tilings fixed by reflect_v), by
    definition, from one enumeration.

    A tiling is fixed when every tile's mirror image is one of its tiles; a
    reflection is an involution, so the image is then the whole tiling.
    """
    refs = (region.reflect_h, region.reflect_v)
    if not all(region.is_symmetric(ref) for ref in refs):
        raise ValueError("the symmetry oracle needs a region fixed by both reflections")
    images = [{t: ref(t) for t in region.triangles} for ref in refs]
    fixed = [0, 0]
    for tiling in enumerate_tilings(region):
        for j, image in enumerate(images):
            if all(tuple(sorted(image[t] for t in tile)) in tiling for tile in tiling):
                fixed[j] += 1
    return fixed[0], fixed[1]


# ---------------------------------------------------------------------------
# broken-profile dynamic program


def _profile_dp(region: Region, use_free: bool, weighted: bool) -> int:
    """Broken-profile sweep over the cells in row-major order.

    A state packs the current row's covered positions into its low `width`
    bits and the next row's positions already covered by vertical lozenges
    into the bits above; it maps to the weighted number of partial tilings.
    Each cell's bit is cleared once the cell is placed, so equal partial
    states merge after every cell and the cost is set by the merged states
    per cell, not by the completions of a row.  Each cell's facts are
    looked up once, outside the loop over states, which does only int
    operations.
    """
    check_width(region)
    cells = region.triangles
    states: dict[int, int] = {0: 1}
    for i in range(region.num_rows):
        width = region.row_len(i)
        for p in range(width):
            t = (i, p)
            if t not in cells:
                continue  # no lozenge ever sets a missing cell's bit
            bit = 1 << p
            factor = 2 if weighted and t in region.special else 1
            # a special slot is vacated whichever member the pair covers
            pair_bit = pair_factor = 0
            if p + 1 < width and (i, p + 1) in cells:
                pair_bit = bit << 1
                pair_factor = factor * (2 if weighted and (i, p + 1) in region.special else 1)
            down_bit = 0
            half = False
            if region.is_up(t):
                v = region.vertical_partner(t)
                if v is not None and v in cells:
                    down_bit = 1 << (width + v[1])
                half = use_free and t in region.free
            nxt: dict[int, int] = {}
            get = nxt.get
            for s, w in states.items():
                if s & bit:
                    s ^= bit
                    nxt[s] = get(s, 0) + w
                    continue
                if pair_bit and not s & pair_bit:
                    u = s | pair_bit
                    nxt[u] = get(u, 0) + w * pair_factor
                if down_bit:
                    # the axis lozenge itself carries no factor
                    u = s | down_bit
                    nxt[u] = get(u, 0) + w
                if half:
                    nxt[s] = get(s, 0) + w * factor
            if not nxt:
                return 0
            states = nxt
        # every bit of row i is cleared; the next row's bits move down
        states = {s >> width: w for s, w in states.items()}
    return states.get(0, 0)


def count_free(region: Region) -> int:
    """Tilings with half lozenges allowed on the region's free edges."""
    return _profile_dp(region, use_free=True, weighted=False)


def count_weighted2(region: Region) -> int:
    """The integer 2^(#specials) * (half-weight count): every special axis
    position not covered by its horizontal lozenge contributes a factor 2."""
    return _profile_dp(region, use_free=False, weighted=True)


# ---------------------------------------------------------------------------
# Kasteleyn determinant


def _corners(region: Region, t: Triangle) -> tuple[tuple[int, int], ...]:
    """Lattice points of t's three corners as (doubled x, line): row i lies
    between lines i and i + 1, and each row starts half a unit left of the
    longer of its two lines."""
    i, p = t
    left = p - (region.row_len(i) + 1) // 2
    if region.is_up(t):
        return ((left, i + 1), (left + 2, i + 1), (left + 1, i))
    return ((left, i), (left + 2, i), (left + 1, i + 1))


def _defect_line(region: Region) -> set[Triangle]:
    """Up triangles whose vertical edge the Kasteleyn signing negates.

    With every edge weighted +1, a face of the honeycomb graph satisfies
    Kasteleyn's cycle rule exactly when it encloses an even number of
    missing triangles.  The missing frame triangles, grouped by shared
    corners, are the faces left by the holes.  For each one of odd size, a
    line runs from its lowest row's rightmost cell along that row's bottom
    edge to the frame, crossing the vertical edges of the up triangles to
    its right.  Negating those edges flips every cycle around the hole and
    leaves every other face's parity unchanged; where two lines cross the
    same edge, they cancel.  Holes reaching the frame's last row are part
    of the outer face and need no line.
    """
    missing = [
        (i, p)
        for i in range(region.num_rows)
        for p in range(region.row_len(i))
        if (i, p) not in region.triangles
    ]
    parent = {t: t for t in missing}

    def root(t: Triangle) -> Triangle:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    first_at: dict[tuple[int, int], Triangle] = {}
    for t in missing:
        for corner in _corners(region, t):
            parent[root(first_at.setdefault(corner, t))] = root(t)
    holes: dict[Triangle, list[Triangle]] = defaultdict(list)
    for t in missing:
        holes[root(t)].append(t)
    flipped: set[Triangle] = set()
    for cells in holes.values():
        low = max(i for i, _ in cells)
        if len(cells) % 2 == 0 or low == region.num_rows - 1:
            continue
        right = max(p for i, p in cells if i == low)
        flipped ^= {
            (low, p) for p in range(right + 1, region.row_len(low)) if region.is_up((low, p))
        }
    return flipped


def count_plain(region: Region) -> int:
    """Number of lozenge tilings (no half lozenges, no weights), as |det K|.

    K has a row per up triangle and a column per down triangle, both in
    row-major order, so it is banded with width about one frame row.  The
    determinant is taken modulo the smallest prime of KASTELEYN_PRIMES
    above twice its Hadamard bound and read back as the symmetric residue,
    which is exact.
    """
    check_width(region)
    order = sorted(region.triangles)
    ups = [t for t in order if region.is_up(t)]
    column = {t: j for j, t in enumerate(t for t in order if not region.is_up(t))}
    if len(ups) != len(column):
        return 0
    flipped = _defect_line(region)
    rows = []
    hadamard_sq = 1  # product of squared row norms; all entries are +-1
    for t in ups:
        i, p = t
        row = {column[d]: 1 for d in ((i, p - 1), (i, p + 1)) if d in column}
        below = region.vertical_partner(t)
        if below in column:
            row[column[below]] = -1 if t in flipped else 1
        if not row:
            return 0
        hadamard_sq *= len(row)
        rows.append(row)
    bound = math.isqrt(hadamard_sq) + 1
    prime = next((q for q in KASTELEYN_PRIMES if q > 2 * bound + 1), None)
    if prime is None:
        raise CapExceeded(
            f"the determinant bound of {bound.bit_length()} bits outgrows the "
            f"largest modulus (2^{KASTELEYN_PRIMES[-1].bit_length()}-1)"
        )
    det = det_mod_sparse(rows, prime)
    return prime - det if det > prime // 2 else det


# ---------------------------------------------------------------------------
# symmetry classes


def count_hsym(region: Region) -> int:
    """Tilings fixed by reflect_h, counted as tilings of the half region
    above the hole axis: a symmetric tiling must place a horizontal lozenge
    on every surviving axis position."""
    return count_plain(upper_half(region))


def count_vsym(region: Region) -> int:
    """Tilings fixed by reflect_v, counted as free-boundary tilings of the
    left half."""
    return count_free(left_half_free(region))


# ---------------------------------------------------------------------------
# splitting along the perpendicular axis


def axis_cut_positions(region: Region) -> list[int]:
    """Row positions of the lozenge slots bisected by the perpendicular
    symmetry axis: present up-triangles in the row just above the equator."""
    cut_row = region.side - 1
    return sorted(
        p
        for (i, p) in region.triangles
        if i == cut_row and region.is_up((i, p)) and (cut_row + 1, p) in region.triangles
    )


def left_piece(region: Region, chosen: tuple[int, ...]) -> Region:
    """The upper half of the region minus the chosen bisected lozenge slots
    (their upper triangles), as a plain sub-region."""
    cut_row = region.side - 1
    removed = {(cut_row, p) for p in chosen}
    cells = frozenset(
        t for t in region.triangles if t[0] < region.side and t not in removed
    )
    return Region(side=region.side, m=region.m, triangles=cells)


def split_by_axis(spec: RegionSpec) -> list[tuple[tuple[int, ...], int]]:
    """Per-subset counts for the split along the perpendicular axis.

    Every tiling bisects exactly spec.n lozenges on that axis; for each
    n-subset S of the available slots the two sides tile independently, so
    the plain count is the sum of the squared one-sided counts and the
    reflect_v-symmetric count is the plain sum.  Returns (S, count) pairs
    in lexicographic S order.  Only hole-free specs are supported.
    """
    if spec.holes:
        raise ValueError("split_by_axis supports hole-free specs only")
    region = build_region(spec)
    positions = axis_cut_positions(region)
    expected = 2 * spec.m + spec.n
    if len(positions) != expected:
        raise AssertionError(f"expected {expected} axis slots, found {len(positions)}")
    out = []
    for chosen in combinations(positions, spec.n):
        out.append((chosen, count_plain(left_piece(region, chosen))))
    return out

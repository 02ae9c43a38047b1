"""Reference implementations that the tests compare the library against.

Each is an independent route to a value some engine of `hexholes`
computes another way, kept slow and direct on purpose:

* `_profile_dp`, the broken-profile dynamic program, checks all three
  Kasteleyn engines of `tiler`: it honors free edges and special
  positions directly, cell by cell, at a cost exponential in the row
  width (`DP_WIDTH_CAP`).
* `pfaffian_by_matchings`, the signed sum over perfect matchings
  (`perfect_matchings`, `matching_crossings`, `matching_sign`), checks
  the Pfaffian kernel `intlinalg.pfaffian_mod_sparse`, through
  `intlinalg.pfaffian_elimination` and directly, and the reduction's
  Pfaffian = det identity up to order `MATCHING_PFAFFIAN_MAX_ORDER`.
* `det_cofactor`, the cofactor expansion, checks both determinant
  engines, the fraction-free `intlinalg.determinant` and the kernel
  `intlinalg.det_mod_sparse`, without any division.
* `reflectable_gf_dp`, a weighted lattice DP, checks the closed form
  `paths.reflectable_gf`.
* `symmetric_via_enumeration`, the symmetry filter by definition: it
  enumerates every tiling and keeps those each reflection fixes.  It
  checks the mirror-constrained enumeration
  `tiler.count_fixed_via_enumeration`.
* `from_rows` builds a `LabeledMatrix` labelled by row and column index.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterator, Sequence

from hexholes.intlinalg import LabeledMatrix, _require_even_skew
from hexholes.paths import Point
from hexholes.regions import CapExceeded, Region
from hexholes.tiler import Tile, enumerate_tilings

# widest frame row the profile DP sweeps: its states can double per cell
DP_WIDTH_CAP = 64

MATCHING_PFAFFIAN_MAX_ORDER = 14


def from_rows(rows: Sequence[Sequence[int]]) -> LabeledMatrix:
    n = len(rows)
    m = len(rows[0]) if rows else 0
    return LabeledMatrix(range(n), range(m), rows)


# ---------------------------------------------------------------------------
# broken-profile dynamic program: the oracle of the Kasteleyn engines


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
    if region.row_len(region.side - 1) > DP_WIDTH_CAP:  # the widest row
        raise CapExceeded(f"the profile DP sweeps rows of at most {DP_WIDTH_CAP} cells")
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


# ---------------------------------------------------------------------------
# the symmetry filter: the oracle of the mirror-constrained enumeration


def symmetric_via_enumeration(region: Region) -> tuple[int, int, int]:
    """(tilings, tilings fixed by reflect_h, tilings fixed by reflect_v), by
    definition, from one enumeration.

    A tiling is fixed when every tile's mirror image is one of its tiles; a
    reflection is an involution, so the image is then the whole tiling.
    Each tile's two images are worked out once per region, on the first
    tiling that holds it.
    """
    refs = (region.reflect_h, region.reflect_v)
    if not all(region.is_symmetric(ref) for ref in refs):
        raise ValueError("the symmetry oracle needs a region fixed by both reflections")
    mirrors: list[dict[Tile, Tile]] = [{}, {}]  # tile -> its image, per reflection
    tilings, fixed = 0, [0, 0]
    for tiling in enumerate_tilings(region):
        tilings += 1
        for j, (ref, mirror) in enumerate(zip(refs, mirrors)):
            for tile in tiling:
                image = mirror.get(tile)
                if image is None:
                    image = mirror[tile] = tuple(sorted(map(ref, tile)))
                if image not in tiling:
                    break
            else:
                fixed[j] += 1
    return tilings, fixed[0], fixed[1]


# ---------------------------------------------------------------------------
# perfect matchings


def perfect_matchings(
    count: int, edge: Callable[[int, int], bool] = lambda a, b: True
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of {0, .., count-1} whose pairs (a, b), a < b,
    all satisfy edge(a, b), each as ordered pairs.

    The first free index is always matched first, so the iteration order is
    deterministic.
    """
    if count % 2:
        raise ValueError(f"no perfect matchings on an odd set of {count} points")

    def rec(remaining: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not remaining:
            yield ()
            return
        a = remaining[0]
        for idx in range(1, len(remaining)):
            b = remaining[idx]
            if not edge(a, b):
                continue
            rest = remaining[1:idx] + remaining[idx + 1 :]
            for tail in rec(rest):
                yield ((a, b),) + tail

    yield from rec(tuple(range(count)))


def matching_crossings(pairs: Sequence[tuple[int, int]]) -> int:
    """Number of crossing pair quadruples i < j < k < l with i--k, j--l."""
    cr = 0
    for (a, b), (c, d) in combinations(pairs, 2):
        if a < c < b < d or c < a < d < b:
            cr += 1
    return cr


def matching_sign(pairs: Sequence[tuple[int, int]]) -> int:
    return -1 if matching_crossings(pairs) % 2 else 1


def pfaffian_by_matchings(a: LabeledMatrix) -> int:
    """Pfaffian as the signed sum over the perfect matchings whose entries
    are all nonzero.

    Exponential in the order, so it is capped at MATCHING_PFAFFIAN_MAX_ORDER;
    use pfaffian_elimination beyond that.  This is the oracle the Pfaffian
    kernel is tested against.
    """
    _require_even_skew(a, "pfaffian_by_matchings")
    n = a.order
    if n > MATCHING_PFAFFIAN_MAX_ORDER:
        raise ValueError(
            f"matching expansion capped at order {MATCHING_PFAFFIAN_MAX_ORDER}, got {n}"
        )
    rows = a.rows
    total = 0
    for pairs in perfect_matchings(n, lambda i, j: rows[i][j] != 0):
        term = matching_sign(pairs)
        for i, j in pairs:
            term *= rows[i][j]
        total += term
    return total


# ---------------------------------------------------------------------------
# determinants


def det_cofactor(rows: Sequence[Sequence[int]]) -> int:
    """Cofactor-expansion determinant; the tests' division-free oracle for
    both determinant engines on tiny orders."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += sign * rows[0][j] * det_cofactor(minor)
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# lattice paths


def reflectable_gf_dp(a: int, b: int, c: int, d: int) -> int:
    """Oracle for reflectable_gf: direct weighted DP over the sub-diagonal
    lattice, factor 2 at every vertex with x == y."""
    if a <= b or c <= d:
        raise ValueError("reflectable_gf_dp needs strictly sub-diagonal endpoints")
    if c < a or d < b:
        return 0
    table: dict[Point, int] = {(a, b): 1}
    for x in range(a, c + 1):
        for y in range(b, d + 1):
            if y > x:
                continue
            if (x, y) == (a, b):
                continue
            arrived = table.get((x - 1, y), 0) if x - 1 >= a else 0
            arrived += table.get((x, y - 1), 0) if y - 1 >= b else 0
            if arrived:
                table[(x, y)] = arrived * (2 if x == y else 1)
    return table.get((c, d), 0)

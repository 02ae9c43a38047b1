"""Hexagonal lattice regions with symmetric triangular holes.

A hexagon with four sides of length n and two opposite sides of length 2m
is stored rotated a quarter turn, as 2n rows of up/down unit triangles:
row i (0-based, top to bottom) holds 4m + 2*min(i, 2n-1-i) + 1 triangles,
indexed by position within the row.  In the upper n rows even positions
point up; in the lower n rows even positions point down.  Rows are
centered, so the two reflection symmetries of the hexagon become

  * reflect_h: position reversal within each row (the symmetry across the
    axis that carries the holes; "horizontal" in the standard drawing), and
  * reflect_v: row reversal i -> 2n-1-i (the perpendicular symmetry).

The hole axis runs down the middle of the rows.  Its j-th lozenge position
(j = 1..n) is the vertical pair {up triangle at the center of row 2j-2,
down triangle at the center of row 2j-1}.

Holes come in mirror pairs: for a hole index k, a side-2 triangle pointing
toward the top of the frame is removed with its apex at the center of row
2k-2 (unit cells in rows 2k-2 and 2k-1, consuming axis position k),
together with its reflect_v image.  With k <= n/2 the two never overlap;
consecutive indices touch corner-to-edge, and k = n/2 makes the pair meet
at the equator in a rhombus.  A central rhombus hole of side x is the
analogous pair of side-x triangles meeting at the equator.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

from . import intlinalg
from .intlinalg import CapExceeded

Triangle = tuple[int, int]


def parse_int(token: str, text: str) -> int:
    """int(text), where text is read from the input token `token`; a
    ValueError naming both when it is not an integer."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{token}: {text!r} is not an integer") from None


class _SpecFields(NamedTuple):
    n: int
    m: int
    holes: tuple[int, ...] = ()
    central_x: int = 0


class RegionSpec(_SpecFields):
    """Parameters naming a holey hexagon.

    n, m: the hexagon has four sides n + central_x and two sides 2m.
    holes: strictly increasing hole indices k with 0 < k <= n/2.
    central_x: side of the central rhombus hole (0 = none; requires n even).

    Every way of building one checks these: the constructor, `parse`, and
    `_make`/`_replace`, which a plain named tuple would let past `__new__`.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, holes: Iterable[int] = (), central_x: int = 0) -> RegionSpec:
        ks = tuple(holes)
        if n < 1 or m < 1:
            raise ValueError(f"n and m must be positive, got n={n} m={m}")
        if any(k < 1 for k in ks):
            raise ValueError(f"hole indices must be positive: {ks}")
        if list(ks) != sorted(set(ks)):
            raise ValueError(f"hole indices must be strictly increasing: {ks}")
        if ks and 2 * ks[-1] > n:
            raise ValueError(f"hole index {ks[-1]} exceeds n/2 = {n}/2")
        if central_x < 0:
            raise ValueError(f"central rhombus side must be >= 0, got {central_x}")
        if central_x > 0 and n % 2:
            raise ValueError("a central rhombus needs even n")
        # hole k spans (k-1, k) on the axis and the rhombus spans
        # (n/2, n/2 + x), so k <= n/2 already rules out any overlap
        return super().__new__(cls, n, m, ks, central_x)

    @classmethod
    def _make(cls, iterable: Iterable) -> RegionSpec:
        # `_replace` builds through `_make`, so this checks both
        return cls(*iterable)

    @property
    def l(self) -> int:
        return len(self.holes)

    @property
    def frame_side(self) -> int:
        """Side of the outer hexagon actually built (n + central_x)."""
        return self.n + self.central_x

    def text(self) -> str:
        parts = [f"n={self.n}", f"m={self.m}"]
        if self.holes:
            parts.append("k=" + ",".join(str(k) for k in self.holes))
        if self.central_x:
            parts.append(f"x={self.central_x}")
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "RegionSpec":
        """Parse the 'n=15 m=5 k=2,5,7 x=0' key=value form (k, x optional)."""
        fields: dict[str, str] = {}
        for token in text.split():
            if "=" not in token:
                raise ValueError(f"expected key=value, got {token!r}")
            key, _, value = token.partition("=")
            if key in fields:
                raise ValueError(f"duplicate key {key!r}")
            fields[key] = value
        unknown = set(fields) - {"n", "m", "k", "x"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        if "n" not in fields or "m" not in fields:
            raise ValueError("both n= and m= are required")
        fields.setdefault("x", "0")
        number = lambda key, text: parse_int(f"{key}={fields[key]}", text)
        holes: tuple[int, ...] = ()
        if fields.get("k"):
            holes = tuple(number("k", part) for part in fields["k"].split(","))
        return cls(
            n=number("n", fields["n"]),
            m=number("m", fields["m"]),
            holes=holes,
            central_x=number("x", fields["x"]),
        )


class Region(NamedTuple):
    """A set of unit triangles inside a hexagonal frame.

    side/m fix the frame (2*side rows); `triangles` is the present subset.
    `free` marks up-triangles whose lower edge lies on a free boundary
    (coverable by a half lozenge); `special` marks the up-triangle of each
    half-weight axis position (a tiling picks up a factor 2 whenever such a
    position is not covered by its axis lozenge).
    """

    side: int
    m: int
    triangles: frozenset[Triangle]
    free: frozenset[Triangle] = frozenset()
    special: frozenset[Triangle] = frozenset()

    # -- frame geometry ------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return 2 * self.side

    def row_len(self, i: int) -> int:
        rows = 2 * self.side
        if not 0 <= i < rows:
            raise IndexError(f"row {i} outside frame of {rows} rows")
        return 4 * self.m + 2 * min(i, rows - 1 - i) + 1

    def center(self, i: int) -> int:
        return self.row_len(i) // 2

    def is_up(self, t: Triangle) -> bool:
        i, p = t
        if i < self.side:
            return p % 2 == 0
        return p % 2 == 1

    # -- reflections -----------------------------------------------------------

    def reflect_h(self, t: Triangle) -> Triangle:
        i, p = t
        return (i, self.row_len(i) - 1 - p)

    def reflect_v(self, t: Triangle) -> Triangle:
        i, p = t
        return (self.num_rows - 1 - i, p)

    def is_symmetric(self, ref: Callable[[Triangle], Triangle]) -> bool:
        """Is the region, with its free and special markers, fixed by the
        reflection ref (reflect_h or reflect_v)?"""
        if ref == self.reflect_h:
            # each row's last position looked up once, not once per triangle
            last = [self.row_len(i) - 1 for i in range(self.num_rows)]
            image = lambda cells: {(i, last[i] - p) for i, p in cells}
        else:
            image = lambda cells: {ref(t) for t in cells}
        return all(image(cells) == cells for cells in (self.triangles, self.free, self.special))

    # -- adjacency -------------------------------------------------------------

    def vertical_partner(self, t: Triangle) -> Triangle | None:
        """The triangle sharing t's horizontal edge (next row down for an
        up-triangle, next row up for a down-triangle), or None at the frame
        boundary."""
        i, p = t
        j = i + 1 if self.is_up(t) else i - 1
        if not 0 <= j < self.num_rows:
            return None
        width = self.row_len(j)
        q = p + (width - self.row_len(i)) // 2
        if not 0 <= q < width:
            return None
        return (j, q)

    # -- axis structure ----------------------------------------------------------

    def axis_positions(self) -> list[tuple[Triangle, Triangle]]:
        """Surviving lozenge positions on the hole axis, as (up, down) pairs.
        Raises ValueError on a position with only one of its triangles."""
        out = []
        for j in range(1, self.side + 1):
            up = (2 * j - 2, self.center(2 * j - 2))
            down = (2 * j - 1, self.center(2 * j - 1))
            if up in self.triangles and down in self.triangles:
                out.append((up, down))
            elif (up in self.triangles) != (down in self.triangles):
                raise ValueError(f"half-removed axis position {j}")
        return out


# ---------------------------------------------------------------------------
# builders


def build_hexagon(n: int, m: int) -> Region:
    """The full hexagon with sides n, 2m, n, n, 2m, n (2n^2 + 8mn triangles).

    Its Kasteleyn matrix has n^2 + 4mn rows of norm up to sqrt(3), so the
    determinant bound has about (n^2 + 4mn) log2(3)/2 bits, and the free
    half's Pfaffian bound about half as many.  A frame past the largest modulus of
    `intlinalg.KASTELEYN_PRIMES` can be counted by no engine, so it is
    refused here, before its cells are allocated."""
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n} m={m}")
    ups = n * n + 4 * m * n
    modulus_bits = intlinalg.KASTELEYN_PRIMES[-1].bit_length()
    if ups * math.log2(3) / 2 > modulus_bits:
        raise CapExceeded(
            f"a hexagon of side {n} with m={m} has {ups} up triangles; its "
            f"determinant bound outgrows the largest modulus (2^{modulus_bits}-1)"
        )
    frame = Region(side=n, m=m, triangles=frozenset())
    cells = frozenset((i, p) for i in range(2 * n) for p in range(frame.row_len(i)))
    return frame._replace(triangles=cells)


def axis_up_triangle_cells(region: Region, apex_row: int, side: int) -> set[Triangle]:
    """Cells of an up-pointing lattice triangle of the given side, centered on
    the hole axis with its apex at the center of apex_row."""
    cells: set[Triangle] = set()
    for j in range(side):
        i = apex_row + j
        if not 0 <= i < region.num_rows:
            raise ValueError(f"triangle row {i} leaves the frame")
        c = region.center(i)
        for d in range(-j, j + 1):
            cells.add((i, c + d))
    return cells


def _remove_cells(region: Region, cells: set[Triangle], what: str) -> Region:
    missing = cells - set(region.triangles)
    if missing:
        raise ValueError(f"{what} is not inside the region: {sorted(missing)[:4]}")
    return region._replace(triangles=region.triangles - cells)


def punch_symmetric_triangle_pair(region: Region, apex_row: int, side: int) -> Region:
    """Remove an up-pointing axis triangle plus its reflect_v mirror image."""
    up_cells = axis_up_triangle_cells(region, apex_row, side)
    mirror = {region.reflect_v(t) for t in up_cells}
    if not up_cells.isdisjoint(mirror):
        raise ValueError(f"triangle pair at row {apex_row} overlaps its own mirror image")
    return _remove_cells(region, up_cells | mirror, f"triangle pair at row {apex_row}")


def punch_holes(region: Region, holes: Iterable[int]) -> Region:
    """Punch the mirror pair of side-2 triangular holes for each hole index."""
    for k in sorted(holes):
        region = punch_symmetric_triangle_pair(region, 2 * k - 2, 2)
    return region


def build_region(spec: RegionSpec) -> Region:
    """Region for a spec: the hexagon of side n + x with the spec's holes
    punched, then the side-x central rhombus (a pair of axis triangles
    meeting at the equator) removed when x > 0."""
    region = punch_holes(build_hexagon(spec.frame_side, spec.m), spec.holes)
    if spec.central_x:
        region = punch_symmetric_triangle_pair(region, spec.n, spec.central_x)
    return region


# ---------------------------------------------------------------------------
# symmetric halves


def _centers(region: Region) -> list[int]:
    """Each row's center position, looked up once per row."""
    return [region.center(i) for i in range(region.num_rows)]


def upper_half(region: Region) -> Region:
    """Everything strictly on one side of the hole axis; the axis lozenge
    positions themselves are excluded.  Requires reflect_h symmetry."""
    if not region.is_symmetric(region.reflect_h):
        raise ValueError("upper_half needs a reflect_h-symmetric region")
    centers = _centers(region)
    cells = frozenset((i, p) for i, p in region.triangles if p > centers[i])
    return Region(side=region.side, m=region.m, triangles=cells)


def lower_half_weighted(region: Region) -> Region:
    """The complementary half including the axis lozenge positions, whose
    up-triangles are marked as half-weight specials."""
    if not region.is_symmetric(region.reflect_h):
        raise ValueError("lower_half_weighted needs a reflect_h-symmetric region")
    centers = _centers(region)
    cells = frozenset((i, p) for i, p in region.triangles if p <= centers[i])
    specials = frozenset(up for up, _down in region.axis_positions())
    return Region(side=region.side, m=region.m, triangles=cells, special=specials)


def left_half_free(region: Region) -> Region:
    """The half on one side of the perpendicular symmetry axis, cut along
    that axis, with every unit edge on the cut free.  Requires reflect_v
    symmetry."""
    if not region.is_symmetric(region.reflect_v):
        raise ValueError("left_half_free needs a reflect_v-symmetric region")
    cells = frozenset(t for t in region.triangles if t[0] < region.side)
    cut_row = region.side - 1
    free = frozenset(
        t for t in cells if t[0] == cut_row and region.is_up(t)
    )
    return Region(side=region.side, m=region.m, triangles=cells, free=free)

"""Reduction of a structured skew Pfaffian to a half-size determinant.

The skew matrices produced by the free-endpoint path count have a rigid
shape: a Toeplitz band block indexed by -m+1..m, a 2m x 2l bridge block
whose columns obey two antisymmetries (y[i, t-] = -y[-i, t-] and
y[i, t+] = -y[2-i, t+]), and a hole block vanishing on its minus/minus
square.  For any such matrix, folding the non-positive rows and columns
(adding every second row/column inward) zeroes a quarter of the matrix,
after which the Pfaffian collapses to the determinant of an (m+l) x (m+l)
block times the sign (-1)^C(l,2).

This module owns that shape and states it once: `StructuredSkew` holds
the free entries (the band, `bridge_keys` and `hole_keys`), and its
accessors fill in every other entry.  Around it are the endpoint and
reduced-block labels, the sign, and each step made executable and
checkable: hypothesis verification (read the free entries off a matrix,
rebuild it, compare), the fold and its proven blocks, the reduced block
(built two independent ways and compared, which is what catches
sign/permutation slips), the one-pass Pfaffian/determinant certificate,
and the first-difference transform that carries the reduced block onto
the diagonal-confined LGV matrix.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Iterator, NamedTuple

from .intlinalg import LabeledMatrix, determinant, pfaffian_elimination


class StructureError(ValueError):
    """A matrix off the structured-skew shape: its labels, or its first
    entry, row by row, that differs from the matrix rebuilt from its free
    entries, named with its block (band, bridge or hole)."""


# ---------------------------------------------------------------------------
# the label scheme


def minus_label(t: int) -> str:
    """Tag for the t-th 'minus' hole index, e.g. minus_label(2) == '2-'."""
    return f"{t}-"


def plus_label(t: int) -> str:
    return f"{t}+"


def parse_hole_label(label: str) -> tuple[int, bool]:
    """(t, True) for minus_label(t) and (t, False) for plus_label(t)."""
    return int(label[:-1]), label.endswith("-")


def int_labels(m: int) -> list[int]:
    return list(range(-m + 1, m + 1))


def hole_labels(l: int) -> list[str]:
    return [minus_label(t) for t in range(1, l + 1)] + [
        plus_label(t) for t in range(1, l + 1)
    ]


def endpoint_labels(m: int, l: int) -> list:
    """Row and column labels of a structured skew matrix, in order:
    -m+1..m, then 1-..l-, then 1+..l+."""
    return int_labels(m) + hole_labels(l)


def reduced_labels(m: int, l: int) -> tuple[list, list]:
    """Row and column labels of the reduced block: 1..m then the minus
    labels down the rows, 1..m then the plus labels across the columns."""
    rows = list(range(1, m + 1)) + [minus_label(t) for t in range(1, l + 1)]
    cols = list(range(1, m + 1)) + [plus_label(t) for t in range(1, l + 1)]
    return rows, cols


def hole_sign(l: int) -> int:
    """The sign (-1)^C(l,2) relating the Pfaffian to the reduced determinant."""
    return -1 if (l * (l - 1) // 2) % 2 else 1


def bridge_keys(m: int, l: int) -> list[tuple]:
    """The free entries of the bridge block, hole by hole: (i, t-) for
    i = 1..m, then (i, t+) for i = 2..m and the unpaired i = 1-m."""
    return [
        key
        for t in range(1, l + 1)
        for key in [(i, minus_label(t)) for i in range(1, m + 1)]
        + [(i, plus_label(t)) for i in [*range(2, m + 1), 1 - m]]
    ]


def hole_keys(l: int) -> list[tuple]:
    """The free entries of the hole block: each pair (a, b) with a before b
    in label order, except minus/minus (b is a plus label, from index l on)."""
    labels = hole_labels(l)
    return [(a, b) for i, a in enumerate(labels) for b in labels[max(i + 1, l) :]]


class StructuredSkew(NamedTuple):
    """A hypothesis-satisfying skew matrix, held as its free entries.

    band[r-1] holds x_r for r = 1..2m-1; y maps each of `bridge_keys(m, l)`
    and z each of `hole_keys(l)` to its entry.  The accessors `x`,
    `bridges` and `hole` are the one statement of the shape: every other
    entry is its mirror's negative, 0 where an index is its own mirror, its
    skew partner's negative, or the minus/minus zero.
    """

    m: int
    l: int
    band: tuple[int, ...]
    y: dict
    z: dict

    def x(self, r: int) -> int:
        """The band entry x_r: x_0 = 0 and x_{-r} = -x_r."""
        if r == 0:
            return 0
        if r > 0:
            return self.band[r - 1]
        return -self.band[-r - 1]

    def bridges(self) -> dict:
        """Every bridge entry y[i, lab], i = -m+1..m: the free ones, then
        y[i, t-] = -y[-i, t-] and y[i, t+] = -y[2-i, t+], 0 where i is its
        own mirror."""
        table = dict(self.y)
        for lab in hole_labels(self.l):
            minus = parse_hole_label(lab)[1]
            for i in int_labels(self.m):
                mirror = -i if minus else 2 - i
                if (i, lab) not in table:
                    table[(i, lab)] = 0 if mirror == i else -self.y[(mirror, lab)]
        return table

    def hole(self, a: str, b: str) -> int:
        """The hole-block entry (a, b): free, its skew partner's negative,
        or 0 on the diagonal and the minus/minus square."""
        if (b, a) in self.z:
            return -self.z[(b, a)]
        return self.z.get((a, b), 0)

    def to_matrix(self) -> LabeledMatrix:
        ints, holes = int_labels(self.m), hole_labels(self.l)
        y = self.bridges()
        rows = [[self.x(b - a) for b in ints] + [y[(a, h)] for h in holes] for a in ints]
        rows += [[-y[(b, a)] for b in ints] + [self.hole(a, h) for h in holes] for a in holes]
        return LabeledMatrix(ints + holes, ints + holes, rows)


def _split_labels(a: LabeledMatrix) -> tuple[int, int]:
    ints = sum(isinstance(lab, int) for lab in a.row_labels)
    m, l = ints // 2, (len(a.row_labels) - ints) // 2
    if m < 1 or list(a.row_labels) != endpoint_labels(m, l):
        raise StructureError("labels are not -m+1..m, 1-..l-, 1+..l+ in order")
    if a.row_labels != a.col_labels:
        raise StructureError("row and column labels differ")
    return m, l


def check_hypotheses(a: LabeledMatrix) -> StructuredSkew:
    """Verify the structural hypotheses and return the structured view.

    The free entries are read off A (the band along its first row) and the
    matrix is rebuilt from them; A must equal it.  Otherwise StructureError
    names the first differing entry, row by row, and its block.
    """
    m, l = _split_labels(a)
    base = -m + 1
    ss = StructuredSkew(
        m=m,
        l=l,
        band=tuple(a.get(base, base + d) for d in range(1, 2 * m)),
        y={key: a.get(*key) for key in bridge_keys(m, l)},
        z={key: a.get(*key) for key in hole_keys(l)},
    )
    rebuilt = ss.to_matrix()
    if a.rows != rebuilt.rows:
        r, c = first_differing_entry(a, rebuilt)
        block = ("hole", "bridge", "band")[isinstance(r, int) + isinstance(c, int)]
        found, want = a.get(r, c), rebuilt.get(r, c)
        raise StructureError(f"{block} block entry ({r}, {c}) is {found}, the structure gives {want}")
    return ss


# ---------------------------------------------------------------------------
# the fold and the reduced block


def _congruence(a: LabeledMatrix, sources) -> LabeledMatrix:
    """Replace each row by the signed sum of the rows that sources(label)
    lists as (sign, label) pairs, then each column the same way.  Two
    passes, so no entry is a double sum over both lists."""

    def combine(vectors, labels) -> Iterator[list[int]]:
        at = dict(zip(labels, vectors))
        for lab in labels:
            signs, picked = zip(*[(sign, at[src]) for sign, src in sources(lab)])
            yield [sum(map(mul, signs, entries)) for entries in zip(*picked)]

    half = combine(a.rows, a.row_labels)
    cols = combine(list(zip(*half)), a.col_labels)
    return LabeledMatrix(a.row_labels, a.col_labels, zip(*cols))


def fold_transform(a: LabeledMatrix) -> LabeledMatrix:
    """Replace row i by the sum of rows i, i+2, .., -i for every i <= 0,
    then do the same with columns.  This is a unit-triangular congruence,
    so the Pfaffian is unchanged; on hypothesis-satisfying input the
    result vanishes on (nonpositive, nonpositive) and (nonpositive, minus)
    blocks while the (nonpositive, plus) block is untouched."""

    def sources(lab):
        if isinstance(lab, int) and lab <= 0:
            return [(1, lab + 2 * r) for r in range(-lab + 1)]
        return [(1, lab)]

    return _congruence(a, sources)


def first_differing_entry(a: LabeledMatrix, b: LabeledMatrix) -> tuple | None:
    """The (row label, column label) of a at the first entry, row by row,
    where a and b differ; None when no entry they share does."""
    for i, (row, other) in enumerate(zip(a.rows, b.rows)):
        for j, (x, y) in enumerate(zip(row, other)):
            if x != y:
                return a.row_labels[i], a.col_labels[j]
    return None


def _first_bad_fold_entry(folded: LabeledMatrix, original: LabeledMatrix, m: int, l: int) -> tuple | None:
    """The (row, column) labels of the first entry, row by row, where the
    folded matrix breaks its proven blocks: zero on (nonpositive,
    nonpositive) and (nonpositive, minus), the original on (nonpositive,
    plus).  None when it keeps them all."""
    rows, plus = int_labels(m)[:m], {plus_label(t) for t in range(1, l + 1)}
    cols = rows + hole_labels(l)
    proven = lambda r, c: original.get(r, c) if c in plus else 0
    block = LabeledMatrix.build(rows, cols, folded.get)
    return first_differing_entry(block, LabeledMatrix.build(rows, cols, proven))


def reduced_matrix_direct(ss: StructuredSkew) -> LabeledMatrix:
    """The half-size block straight from the structured data: band sums in
    the top-left, folded bridge columns, negated bridge rows, hole block."""
    rows, cols = reduced_labels(ss.m, ss.l)
    y = ss.bridges()

    def entry(r, c) -> int:
        if isinstance(r, int):
            if isinstance(c, int):
                return sum(ss.x(d) for d in range(abs(c - r) + 1, r + c, 2))
            return y[(1 - r, c)]
        return -y[(c, r)] if isinstance(c, int) else ss.hole(r, c)

    return LabeledMatrix.build(rows, cols, entry)


def reduced_matrix_from_fold(folded: LabeledMatrix, m: int, l: int) -> LabeledMatrix:
    """The same block read out of the folded matrix: the non-positive rows
    reversed into 1..m (plus the minus rows), against columns 1..m and the
    plus columns."""
    rows, cols = reduced_labels(m, l)

    def source_row(r):
        return 1 - r if isinstance(r, int) else r

    entries = [[folded.get(source_row(r), c) for c in cols] for r in rows]
    return LabeledMatrix(rows, cols, entries)


class ReductionCertificate(NamedTuple):
    """One pass of the reduction over a matrix: the Pfaffian against the
    signed determinant of the reduced block, the block itself (as built
    from the structured data), the first entry where the block read out of
    the fold differs from it, and the first entry where the folded matrix
    breaks its proven blocks (each None when there is none)."""

    pfaffian: int
    reduced_det: int
    sign: int
    reduced: LabeledMatrix
    first_bad_reduced_entry: tuple | None
    first_bad_fold_entry: tuple | None


def verify_pfaffian_reduction(a: LabeledMatrix) -> ReductionCertificate:
    """Exact check that Pf(A) = (-1)^C(l,2) det(reduced block).

    The hypotheses are checked and A is folded once.  The reduced block is
    built from the structured data and read out of the fold, and the two
    must agree: a mismatch means the fold or the rearrangement bookkeeping
    is broken, and fails the certificate's record."""
    ss = check_hypotheses(a)
    folded = fold_transform(a)
    reduced = reduced_matrix_direct(ss)
    bad_reduced = first_differing_entry(reduced, reduced_matrix_from_fold(folded, ss.m, ss.l))
    pf = pfaffian_elimination(a)
    det = determinant(reduced)
    sign = hole_sign(ss.l)
    return ReductionCertificate(
        pfaffian=pf,
        reduced_det=det,
        sign=sign,
        reduced=reduced,
        first_bad_reduced_entry=bad_reduced,
        first_bad_fold_entry=_first_bad_fold_entry(folded, a, ss.m, ss.l),
    )


def difference_transform(b: LabeledMatrix) -> LabeledMatrix:
    """Subtract each integer-labeled row from its successor (top row and
    hole rows untouched), then the same with columns.  Unit-triangular row
    and column operations, so the determinant is unchanged."""

    def sources(lab):
        if isinstance(lab, int) and lab >= 2:
            return [(1, lab), (-1, lab - 1)]
        return [(1, lab)]

    return _congruence(b, sources)


# ---------------------------------------------------------------------------
# random instances


def random_structured(rng: random.Random, m: int, l: int) -> StructuredSkew:
    """A random hypothesis-satisfying instance: each free entry uniform in
    [-9, 9], drawn in the order band, `bridge_keys`, `hole_keys`."""
    draw = lambda: rng.randint(-9, 9)
    band = tuple(draw() for _ in range(2 * m - 1))
    y = {key: draw() for key in bridge_keys(m, l)}
    return StructuredSkew(m=m, l=l, band=band, y=y, z={key: draw() for key in hole_keys(l)})

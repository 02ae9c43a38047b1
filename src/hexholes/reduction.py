"""Reduction of a structured skew Pfaffian to a half-size determinant.

The skew matrices produced by the free-endpoint path count have a rigid
shape: a Toeplitz band block indexed by -m+1..m, a 2m x 2l bridge block
whose columns obey two antisymmetries (y[i, t-] = -y[-i, t-] and
y[i, t+] = -y[2-i, t+]), and a hole block vanishing on its minus/minus
square.  For any such matrix, folding the non-positive rows and columns
(adding every second row/column inward) zeroes a quarter of the matrix,
after which the Pfaffian collapses to the determinant of an (m+l) x (m+l)
block times the sign (-1)^C(l,2).

This module owns that shape: the endpoint and reduced-block labels, the
sign, and each step made executable and checkable: hypothesis
verification, the fold and its proven blocks, the reduced block (built two
independent ways and compared, which is what catches sign/permutation
slips), the one-pass Pfaffian/determinant certificate, and the
first-difference transform that carries the reduced block onto the
diagonal-confined LGV matrix.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Iterator, NamedTuple

from .intlinalg import LabeledMatrix, determinant, pfaffian_elimination


class StructureError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


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


class StructuredSkew(NamedTuple):
    """The data determining a hypothesis-satisfying skew matrix.

    band[r-1] holds x_r for r = 1..2m-1 (with x_0 = 0, x_{-r} = -x_r);
    y maps (integer index, hole label) to the bridge block; z maps ordered
    hole-label pairs to the hole block.
    """

    m: int
    l: int
    band: tuple[int, ...]
    y: dict
    z: dict

    def x(self, r: int) -> int:
        if r == 0:
            return 0
        if r > 0:
            return self.band[r - 1]
        return -self.band[-r - 1]

    def to_matrix(self) -> LabeledMatrix:
        labels = endpoint_labels(self.m, self.l)

        def entry(a, b) -> int:
            a_int = isinstance(a, int)
            b_int = isinstance(b, int)
            if a_int and b_int:
                return self.x(b - a)
            if a_int:
                return self.y[(a, b)]
            if b_int:
                return -self.y[(b, a)]
            return self.z[(a, b)] if a != b else 0

        return LabeledMatrix.build(labels, labels, entry)


def _split_labels(a: LabeledMatrix) -> tuple[int, int]:
    ints = [lab for lab in a.row_labels if isinstance(lab, int)]
    holes = [lab for lab in a.row_labels if not isinstance(lab, int)]
    m = len(ints) // 2
    l = len(holes) // 2
    if m < 1 or list(a.row_labels) != endpoint_labels(m, l):
        raise StructureError(["labels are not -m+1..m, 1-..l-, 1+..l+ in order"])
    if a.row_labels != a.col_labels:
        raise StructureError(["row and column labels differ"])
    return m, l


def check_hypotheses(a: LabeledMatrix) -> StructuredSkew:
    """Verify the structural hypotheses and return the structured view.

    Raises StructureError carrying one message per violated hypothesis:
    broken skew-symmetry, a non-Toeplitz band entry, either bridge
    antisymmetry, or a nonzero minus/minus hole entry.
    """
    m, l = _split_labels(a)
    violations = list(a.skew_violations())
    ints = int_labels(m)

    base = -m + 1
    band = [a.get(base, base + d) for d in range(1, 2 * m)]
    for i in ints:
        for j in ints:
            d = j - i
            want = band[d - 1] if d >= 1 else (-band[-d - 1] if d <= -1 else 0)
            if a.get(i, j) != want:
                violations.append(f"band block is not Toeplitz at ({i}, {j})")

    y = {}
    for i in ints:
        for lab in hole_labels(l):
            y[(i, lab)] = a.get(i, lab)
    for t in range(1, l + 1):
        neg, pos = minus_label(t), plus_label(t)
        for i in ints:
            if -i in ints and y[(i, neg)] != -y[(-i, neg)]:
                violations.append(f"bridge rule y[i,{neg}] = -y[-i,{neg}] fails at i={i}")
            if 2 - i in ints and y[(i, pos)] != -y[(2 - i, pos)]:
                violations.append(f"bridge rule y[i,{pos}] = -y[2-i,{pos}] fails at i={i}")

    z = {}
    for ha in hole_labels(l):
        for hb in hole_labels(l):
            if ha != hb:
                z[(ha, hb)] = a.get(ha, hb)
    for t in range(1, l + 1):
        for s in range(1, l + 1):
            if t != s and z[(minus_label(t), minus_label(s))] != 0:
                violations.append(
                    f"hole block entry ({minus_label(t)}, {minus_label(s)}) must vanish"
                )

    if violations:
        raise StructureError(violations)
    return StructuredSkew(m=m, l=l, band=tuple(band), y=y, z=z)


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

    def entry(r, c) -> int:
        r_int = isinstance(r, int)
        c_int = isinstance(c, int)
        if r_int and c_int:
            return sum(ss.x(d) for d in range(abs(c - r) + 1, r + c, 2))
        if r_int:
            return ss.y[(1 - r, c)]
        if c_int:
            return -ss.y[(c, r)]
        return ss.z[(r, c)]

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
    """A random hypothesis-satisfying instance: free parameters uniform in
    [-9, 9], constrained entries filled in from the antisymmetries.

    Free parameters: the whole band; y[1..m, t-] (y[0, t-] = 0 and
    negatives mirror); y[2..m, t+] and the lone unpaired y[1-m, t+]
    (y[1, t+] = 0, the rest mirror through i -> 2-i); all minus/plus hole
    entries and the strict upper plus/plus triangle.
    """
    draw = lambda: rng.randint(-9, 9)
    band = tuple(draw() for _ in range(2 * m - 1))
    ints = int_labels(m)

    y: dict = {}
    for t in range(1, l + 1):
        neg = minus_label(t)
        vals = {i: draw() for i in range(1, m + 1)}
        for i in ints:
            if i >= 1:
                y[(i, neg)] = vals[i]
            elif i == 0:
                y[(i, neg)] = 0
            else:
                y[(i, neg)] = -vals[-i]
        pos = plus_label(t)
        high = {i: draw() for i in range(2, m + 1)}
        for i in ints:
            if i == 1:
                y[(i, pos)] = 0
            elif i >= 2:
                y[(i, pos)] = high[i]
            elif i >= 2 - m:
                y[(i, pos)] = -high[2 - i]
            else:  # i == 1 - m, unpaired
                y[(i, pos)] = draw()

    z: dict = {}
    minus = [minus_label(t) for t in range(1, l + 1)]
    plus = [plus_label(t) for t in range(1, l + 1)]
    for a_lab in minus:
        for b_lab in minus:
            if a_lab != b_lab:
                z[(a_lab, b_lab)] = 0
    for a_lab in minus:
        for b_lab in plus:
            v = draw()
            z[(a_lab, b_lab)] = v
            z[(b_lab, a_lab)] = -v
    for ti in range(l):
        for si in range(ti + 1, l):
            v = draw()
            z[(plus[ti], plus[si])] = v
            z[(plus[si], plus[ti])] = -v

    return StructuredSkew(m=m, l=l, band=band, y=y, z=z)

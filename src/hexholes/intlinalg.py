"""Exact integer linear algebra for matrices with symbolic labels.

Everything runs on Python's arbitrary-precision integers; nothing is ever
rounded.  There are two engines, one per job.  The sparse Kasteleyn
matrices go through one determinant kernel, `det_mod_sparse`, and one
Pfaffian kernel, `pfaffian_mod_sparse`: each eliminates a sparse matrix
modulo a prime.  `exact` turns either into an integer: it runs the kernel
modulo the smallest prime of `KASTELEYN_PRIMES` above twice a bound on the
value (Hadamard's, `hadamard_bound`), reads back the symmetric residue,
and stops with `CapExceeded` past the largest prime.
`pfaffian_elimination` is that route for a `LabeledMatrix`.  The small
dense path matrices, whose entries are thousands of bits wide, go through
`determinant`, a fraction-free (Bareiss) elimination on the integers
themselves: it takes no modulus and has no cap, and its value is checked
against the same Hadamard bound.  The slow routes the tests compare these
against, the perfect-matching Pfaffian and the cofactor determinant, are
in `tests/oracles.py`.

Every modulus is a Mersenne number p = 2^e - 1, and the kernels refuse
any other.  Since 2^e = 1 modulo p, an update x reduces by the fold
(x & p) + (x >> e), which keeps x modulo p: a mask, a shift and an add,
linear in the width, where a generic `%` divides.  Each update of
either kernel adds one product to a stored entry: in `det_mod_sparse`,
of two residues in [0, p) to a third; in `pfaffian_mod_sparse`, of a
symmetric residue in (-p/2, p/2) and a stored entry in (-p, p) to
another stored entry.  Either way x stays inside (-p^2, p^2), where one
fold lands in (-p, 2p), whose only multiples of p are 0 and p, so one
correction finishes an update.  Both kernels fold under every modulus:
from 2^521 - 1 up the fold is several times faster than `%`, and below
it neither is faster.

Matrices carry explicit row/column labels (any hashable values) so callers
can address entries by the same index sets that define them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Hashable, Iterable, Mapping, Sequence

Label = Hashable

# the moduli of the sparse eliminations: 2^e - 1 for every Mersenne prime
# exponent e from 61 to 11213, smallest first
KASTELEYN_PRIMES = tuple(
    2**e - 1
    for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213)
)


class CapExceeded(RuntimeError):
    """A size cap stopped a count or an oracle: the input is too large for
    the current caps, which says nothing about any identity."""


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n.

    n must be non-negative; out-of-range k is a normal occurrence in the
    summation formulas built on top of this, not an error.
    """
    if n < 0:
        raise ValueError(f"binomial() needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def signed_range_sum(f: Callable[[int], int], lo: int, hi: int) -> int:
    """Sum of f(r) for r in [lo, hi], extended to decreasing ranges.

    hi == lo - 1 is the empty sum (0); for hi < lo - 1 the value is the
    negative of the sum over [hi + 1, lo - 1].  With this reading,
    signed_range_sum(f, lo, hi) == -signed_range_sum(f, hi + 1, lo - 1)
    for every pair of bounds.
    """
    if hi >= lo:
        return sum(f(r) for r in range(lo, hi + 1))
    if hi == lo - 1:
        return 0
    return -sum(f(r) for r in range(hi + 1, lo))


# ---------------------------------------------------------------------------
# labeled matrices


class LabeledMatrix:
    """Dense integer matrix addressed by hashable row/column labels.

    Row and column label tuples fix the entry order; all determinant and
    Pfaffian values below depend on that order, so it is part of the value.
    """

    __slots__ = ("row_labels", "col_labels", "rows", "_ri", "_ci")

    def __init__(
        self,
        row_labels: Iterable[Label],
        col_labels: Iterable[Label],
        rows: Iterable[Iterable[int]],
    ) -> None:
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.rows = [list(r) for r in rows]
        if len(self.rows) != len(self.row_labels):
            raise ValueError("row count does not match row labels")
        for r in self.rows:
            if len(r) != len(self.col_labels):
                raise ValueError("column count does not match column labels")
        self._ri = {lab: i for i, lab in enumerate(self.row_labels)}
        self._ci = {lab: j for j, lab in enumerate(self.col_labels)}
        if len(self._ri) != len(self.row_labels) or len(self._ci) != len(self.col_labels):
            raise ValueError("labels must be unique")

    @classmethod
    def build(
        cls,
        row_labels: Iterable[Label],
        col_labels: Iterable[Label],
        entry: Callable[[Label, Label], int],
    ) -> "LabeledMatrix":
        row_labels = tuple(row_labels)
        col_labels = tuple(col_labels)
        rows = [[entry(r, c) for c in col_labels] for r in row_labels]
        return cls(row_labels, col_labels, rows)

    # -- access ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    @property
    def order(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("order is defined for square matrices only")
        return self.nrows

    def get(self, row: Label, col: Label) -> int:
        return self.rows[self._ri[row]][self._ci[col]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledMatrix):
            return NotImplemented
        return (
            self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"LabeledMatrix(rows={self.row_labels!r}, cols={self.col_labels!r}, {self.rows!r})"

    # -- structure checks ----------------------------------------------------

    def skew_violations(self) -> list[str]:
        """Human-readable list of failures of A^t == -A (empty if skew)."""
        if self.nrows != self.ncols:
            return ["matrix is not square"]
        bad = []
        for i in range(self.nrows):
            for j in range(i, self.ncols):
                if self.rows[i][j] != -self.rows[j][i]:
                    bad.append(
                        f"entry ({self.row_labels[i]!r}, {self.col_labels[j]!r}) "
                        f"breaks skew-symmetry"
                    )
        return bad


def _require_even_skew(a: LabeledMatrix, what: str) -> None:
    if a.nrows != a.ncols:
        raise ValueError(f"{what} needs a square matrix")
    if a.order % 2:
        raise ValueError(f"{what} needs even order, got {a.order}")
    bad = a.skew_violations()
    if bad:
        raise ValueError(f"{what} needs a skew-symmetric matrix: {bad[0]}")


# ---------------------------------------------------------------------------
# exact values


def determinant(a: LabeledMatrix) -> int:
    """Exact determinant, rows and columns in label order, by fraction-free
    (Bareiss) elimination on the integers.

    Step k takes row k as the pivot row, swapping in (and negating the
    sign for) the first row below it with a nonzero entry in column k
    where the diagonal holds 0; a column with none gives 0.  Each entry
    (i, j) below and right of the pivot becomes (a_ij a_kk - a_ik a_kj) / d,
    d the previous step's pivot (1 at the first).  Each new entry is a
    minor of the matrix (Bareiss, Math. Comp. 22, 1968), so every division
    is exact and the last pivot is the determinant; an order-0 matrix
    gives 1.  The value is checked against Hadamard's bound, which only a
    faulty elimination can exceed (ArithmeticError)."""
    if a.nrows != a.ncols:
        raise ValueError("determinant needs a square matrix")
    n = a.nrows
    rows = [row[:] for row in a.rows]
    sign, previous = 1, 1
    for k in range(n):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        p, tail = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(v * p - f * w) // previous for v, w in zip(row[k + 1 :], tail)]
        previous = p
    value = sign * previous
    bound = hadamard_bound(_nonzero_entries(a))
    if abs(value) > bound:
        raise ArithmeticError(f"determinant reached {value}, which exceeds its bound {bound}")
    return value


def pfaffian_elimination(a: LabeledMatrix) -> int:
    """Exact Pfaffian of a skew-symmetric matrix of even order, rows and
    columns in label order.  Pf(A)^2 = det A bounds it by the square root
    of the determinant's bound."""
    _require_even_skew(a, "pfaffian_elimination")
    rows = _nonzero_entries(a)
    return exact(pfaffian_mod_sparse, rows, math.isqrt(hadamard_bound(rows)))


def _nonzero_entries(a: LabeledMatrix) -> list[dict[int, int]]:
    return [{c: v for c, v in enumerate(row) if v} for row in a.rows]


def hadamard_bound(rows: Sequence[Mapping[int, int]]) -> int:
    """Hadamard's bound on |det| of the matrix whose r-th row maps column ->
    entry: the integer square root of the product of the rows' squared
    norms."""
    return math.isqrt(math.prod(sum(v * v for v in row.values()) for row in rows))


def modulus_above(bound: int) -> int | None:
    """The smallest prime of KASTELEYN_PRIMES above 2 * bound, or None when
    there is none: the least modulus whose symmetric residue recovers every
    integer of absolute value at most bound."""
    return next((q for q in KASTELEYN_PRIMES if q > 2 * bound), None)


def exact(
    kernel: Callable[[Sequence[Mapping[int, int]], int], int],
    rows: Sequence[Mapping[int, int]],
    bound: int,
) -> int:
    """The integer whose residue kernel(rows, prime) is, given a bound on its
    absolute value: kernel runs modulo modulus_above(bound), and the
    symmetric residue is read back.

    Raises CapExceeded when no prime of KASTELEYN_PRIMES is large enough,
    and ArithmeticError when the value read back exceeds the bound, which
    only a wrong bound or a faulty kernel can cause."""
    prime = modulus_above(bound)
    if prime is None:
        raise CapExceeded(
            f"the bound of {bound.bit_length()} bits outgrows the "
            f"largest modulus (2^{KASTELEYN_PRIMES[-1].bit_length()}-1)"
        )
    value = kernel(rows, prime)
    if value > prime // 2:
        value -= prime
    if abs(value) > bound:
        raise ArithmeticError(f"{kernel.__name__} read back {value}, which exceeds its bound {bound}")
    return value


# ---------------------------------------------------------------------------
# modular kernels


def det_mod_sparse(rows: Sequence[Mapping[int, int]], prime: int) -> int:
    """Determinant modulo a Mersenne prime of the square matrix whose r-th
    row maps column -> entry (absent entries are zero), in [0, prime).

    Eliminates column by column; the pivot for a column is the remaining
    row with the fewest entries that holds it, which keeps the fill-in of
    banded matrices near the band.  Each update adds a product of two
    residues in [0, prime) to a third, so it is below prime^2 and one fold
    with one subtraction reduces it (see the module docstring).
    """
    e = _mersenne_exponent(prime)
    n = len(rows)
    rows = [{c: v % prime for c, v in row.items() if v % prime} for row in rows]
    holders: dict[int, set[int]] = defaultdict(set)  # column -> non-pivot rows holding it
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    det = 1
    pivot_rows = []
    for c in range(n):
        candidates = holders.pop(c, None)
        if not candidates:
            return 0
        r = min(candidates, key=lambda s: (len(rows[s]), s))
        candidates.discard(r)
        pivot = rows[r]
        value = pivot.pop(c)
        for cc in pivot:
            holders[cc].discard(r)
        det = det * value % prime
        inverse = pow(value, -1, prime)
        for s in candidates:
            row = rows[s]
            factor = -row.pop(c) * inverse % prime  # negated, so an update is a sum
            for cc, v in pivot.items():
                new = row.get(cc, 0) + factor * v
                new = (new & prime) + (new >> e)
                if new >= prime:
                    new -= prime
                if new:
                    if cc not in row:
                        holders[cc].add(s)
                    row[cc] = new
                elif cc in row:
                    del row[cc]
                    holders[cc].discard(s)
        pivot_rows.append(r)
    # the pivots sit on the diagonal once row pivot_rows[c] moves to row c
    return _signed(det, pivot_rows, prime)


def pfaffian_mod_sparse(rows: Sequence[Mapping[int, int]], prime: int) -> int:
    """Pfaffian modulo a Mersenne prime of the skew-symmetric matrix of even
    order whose r-th row maps column -> entry (absent entries are zero), in
    [0, prime).

    Pairs one row with one column at a time: the first remaining row r,
    and as its partner the column c of a nonzero A[r][c] whose own row has
    the fewest entries.  Removing rows and columns r and c leaves the skew
    Schur complement A[i][j] + x_i A[r][j] - A[r][i] x_j, with
    x_i = A[c][i] / A[r][c], and Pf A is A[r][c] times its Pfaffian, signed
    by the parity of the order in which the pairs were taken.  The
    complement is a rank-2 update, applied one product at a time: for each
    i where x_i is nonzero and each j != i where A[r][j] is, x_i A[r][j] is
    added to A[i][j] and the result mirrored into A[j][i] negated, which
    is the -A[r][j] x_i term of entry (j, i).  No pair outside the
    two supports is visited, and i = j, where the two terms cancel, is
    skipped.

    Entries enter as symmetric residues, in (-prime/2, prime/2), so that
    the small integers of the early Schur complements stay small.  An
    update adds to a stored entry one product of a symmetric residue x_i,
    in (-prime/2, prime/2), and a stored entry A[r][j], so while every
    stored entry is in (-prime, prime) the update is in (-prime^2, prime^2);
    one fold takes it to (-prime, 2 prime) (see the module docstring), and
    the symmetric correction, which also maps prime to 0, back into
    (-prime, prime).
    """
    e = _mersenne_exponent(prime)
    n = len(rows)
    if n % 2:
        raise ValueError(f"pfaffian_mod_sparse needs even order, got {n}")
    half = prime // 2
    rows = [{c: v for c, v in row.items() if v % prime} for row in rows]
    if any(rows[c].get(r) != -v for r, row in enumerate(rows) for c, v in row.items()):
        raise ValueError("pfaffian_mod_sparse needs a skew-symmetric matrix")
    for row in rows:
        for c, v in row.items():
            v %= prime
            row[c] = v - prime if v > half else v
    pf = 1
    paired = [False] * n
    order = []  # r_1, c_1, r_2, c_2, ...
    for r in range(n):
        if paired[r]:
            continue
        row_r = rows[r]
        if not row_r:
            return 0
        c = min(row_r, key=lambda s: (len(rows[s]), s))
        row_c = rows[c]
        value = row_r.pop(c)
        del row_c[r]
        for i in row_r:
            del rows[i][r]
        for i in row_c:
            del rows[i][c]
        paired[r] = paired[c] = True
        order += (r, c)
        pf = pf * value % prime
        inverse = pow(value, -1, prime)
        scaled_c = {}  # A[c][i] / A[r][c]
        for i, v in row_c.items():
            v = v * inverse % prime
            scaled_c[i] = v - prime if v > half else v
        for i, xi in scaled_c.items():
            row = rows[i]
            for j, yj in row_r.items():
                if j == i:
                    continue
                new = row.get(j, 0) + xi * yj
                new = (new & prime) + (new >> e)
                if new > half:
                    new -= prime
                if new:
                    row[j] = new
                    rows[j][i] = -new
                elif j in row:
                    del row[j]
                    del rows[j][i]
    # row k of the eliminated matrix is row order[k]
    return _signed(pf, order, prime)


def _mersenne_exponent(prime: int) -> int:
    """e for the modulus prime = 2^e - 1.

    Raises ValueError for a modulus of any other form, for which the fold
    would be wrong."""
    if prime & (prime + 1):
        raise ValueError(f"the sparse kernels need a modulus 2^e - 1, got one of {prime.bit_length()} bits")
    return prime.bit_length()


def _signed(value: int, permutation: Sequence[int], prime: int) -> int:
    """value, negated modulo prime when the permutation (k -> permutation[k])
    is odd."""
    seen = [False] * len(permutation)
    odd = False
    for start in range(len(permutation)):
        k, length = start, 0
        while not seen[k]:
            seen[k] = True
            k = permutation[k]
            length += 1
        odd ^= length > 0 and length % 2 == 0  # a cycle of length L is L - 1 swaps
    return (prime - value) % prime if odd else value

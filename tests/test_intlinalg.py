import math
import random

import pytest
from hypothesis import given, strategies as st

from hexholes import intlinalg
from hexholes.intlinalg import (
    KASTELEYN_PRIMES,
    CapExceeded,
    LabeledMatrix,
    binomial,
    det_mod_sparse,
    determinant,
    exact,
    hadamard_bound,
    modulus_above,
    pfaffian_elimination,
    pfaffian_mod_sparse,
    signed_range_sum,
)

from oracles import (
    det_cofactor,
    from_rows,
    matching_crossings,
    matching_sign,
    perfect_matchings,
    pfaffian_by_matchings,
)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_signed_range_sum_branches():
    assert signed_range_sum(lambda r: 10**9, 0, -1) == 0
    # decreasing by more than one negates the flipped range
    assert signed_range_sum(lambda r: binomial(2, 1 + r), 2, -1) == -3
    assert signed_range_sum(lambda r: r, 1, 2) == 3


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_signed_range_sum_reflection(lo, hi):
    f = lambda r: r * r + 3 * r + 1
    assert signed_range_sum(f, lo, hi) == -signed_range_sum(f, hi + 1, lo - 1)


def test_perfect_matchings_counts():
    # (2n-1)!! matchings of 2n points
    assert sum(1 for _ in perfect_matchings(2)) == 1
    assert sum(1 for _ in perfect_matchings(4)) == 3
    assert sum(1 for _ in perfect_matchings(6)) == 15
    with pytest.raises(ValueError):
        list(perfect_matchings(3))


def test_matching_crossings():
    assert matching_crossings(((0, 1), (2, 3))) == 0
    assert matching_crossings(((0, 2), (1, 3))) == 1
    assert matching_sign(((0, 2), (1, 3))) == -1
    assert matching_sign(((0, 3), (1, 2))) == 1


def _skew(rows):
    return from_rows(rows)


def test_pfaffian_2x2():
    assert pfaffian_by_matchings(_skew([[0, 5], [-5, 0]])) == 5
    assert pfaffian_elimination(_skew([[0, 5], [-5, 0]])) == 5


def test_pfaffian_4x4_three_matchings():
    a = _skew([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]])
    assert pfaffian_by_matchings(a) == 1 * 6 - 2 * 5 + 3 * 4
    assert pfaffian_elimination(a) == 8


def test_pfaffian_rejects_bad_input():
    odd = _skew([[0]])
    with pytest.raises(ValueError):
        pfaffian_by_matchings(odd)
    with pytest.raises(ValueError):
        pfaffian_elimination(odd)
    not_skew = _skew([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        pfaffian_by_matchings(not_skew)


def _random_skew(rng, n, lo=-9, hi=9):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(lo, hi)
            rows[i][j] = v
            rows[j][i] = -v
    return _skew(rows)


def test_pfaffian_elimination_matches_matchings():
    rng = random.Random(11)
    for n in (2, 4, 6, 8):
        for _ in range(25):
            a = _random_skew(rng, n)
            assert pfaffian_elimination(a) == pfaffian_by_matchings(a)


def test_pfaffian_squared_is_determinant():
    rng = random.Random(13)
    for n in (2, 4, 6, 8):
        for _ in range(25):
            a = _random_skew(rng, n)
            assert pfaffian_elimination(a) ** 2 == determinant(a)


def test_pfaffian_zero_matrix():
    assert pfaffian_elimination(_skew([[0] * 4 for _ in range(4)])) == 0


def test_determinant_values():
    eye3 = _skew([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert determinant(eye3) == 1
    assert determinant(_skew([[2, 3], [4, 5]])) == -2
    with pytest.raises(ValueError):
        determinant(from_rows([[1, 2]]))


def test_determinant_matches_cofactor():
    rng = random.Random(17)
    for n in range(0, 7):
        for _ in range(30):
            dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            # mostly zero, so zero pivots force row swaps and whole zero columns occur
            sparse = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
            for rows in (dense, sparse):
                assert determinant(from_rows(rows)) == det_cofactor(rows)
                if n >= 2:
                    # singular: one row a multiple of another
                    (i, j), factor = rng.sample(range(n), 2), rng.randint(-3, 3)
                    singular = [row[:] for row in rows]
                    singular[i] = [factor * v for v in rows[j]]
                    assert determinant(from_rows(singular)) == det_cofactor(singular) == 0


@st.composite
def wide_square(draw):
    """A random square integer matrix of order 0-12 with entries up to
    2^256 in absolute value, about half of them zero, as dense rows."""
    n = draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.integers(-(2**256), 2**256))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


# the two determinant engines check each other: the fraction-free
# elimination on the integers and the sparse kernel modulo a prime
@given(wide_square(), st.sampled_from((2**61 - 1, 2**521 - 1)))
def test_determinant_agrees_with_det_mod_sparse(rows, prime):
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    assert determinant(from_rows(rows)) % prime == det_mod_sparse(sparse, prime)


def test_det_mod_sparse_matches_the_cofactor_expansion():
    # mostly-zero matrices, so pivots must be searched for; the small prime
    # also makes nonzero entries vanish during elimination
    rng = random.Random(23)
    # every modulus reduces by the fold, from 3 bits to 2,203
    for prime in (7, 2**61 - 1, 2**521 - 1, 2**2203 - 1):
        for n in range(0, 8):
            for _ in range(40):
                rows = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
                sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
                assert det_mod_sparse(sparse, prime) == det_cofactor(rows) % prime


def test_det_mod_sparse_edge_cases():
    # a narrow and a wide modulus
    for prime in (2**61 - 1, 2**521 - 1):
        half = prime // 2
        # eliminating column 0 takes entry (1, 1) to 1 - 1 * 1 = 0, which the
        # fold reaches as prime itself; read as nonzero, it would be a pivot
        assert det_mod_sparse([{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}], prime) == prime - 1
        # entry (1, 1) becomes 1 - 2 = -1, folded from 1 + (prime - 1) * 2
        assert det_mod_sparse([{0: 1, 1: 2}, {0: 1, 1: 1}], prime) == prime - 1
        # determinants prime // 2 and -(prime // 2), each reached by an update
        assert det_mod_sparse([{0: 1, 1: 2}, {0: 1, 1: half + 2}], prime) == half
        assert det_mod_sparse([{0: 1, 1: half + 2}, {0: 1, 1: 2}], prime) == prime - half


@pytest.mark.parametrize("kernel", [det_mod_sparse, pfaffian_mod_sparse])
def test_sparse_kernels_refuse_a_modulus_that_is_not_mersenne(kernel):
    rows = [{1: 1}, {0: -1}]
    assert kernel(rows, 2**61 - 1) == 1
    for modulus in (11, 2**61 + 1, 2**521 - 3):
        with pytest.raises(ValueError, match="need a modulus 2\\^e - 1"):
            kernel(rows, modulus)


def _kasteleyn_determinant(a):
    """The determinant by the route the tiler takes for K: the sparse
    kernel through `exact`, under the matrix's Hadamard bound."""
    rows = [{c: v for c, v in enumerate(row) if v} for row in a.rows]
    return exact(intlinalg.det_mod_sparse, rows, hadamard_bound(rows))


@pytest.mark.parametrize(
    "exact_value, kernel, rows, value",
    [
        (_kasteleyn_determinant, "det_mod_sparse", [[2, 3], [4, 5]], -2),
        (pfaffian_elimination, "pfaffian_mod_sparse", [[0, 5], [-5, 0]], 5),
    ],
    ids=["determinant-det_mod_sparse", "pfaffian_elimination-pfaffian_mod_sparse"],
)
def test_exact_values_refuse_a_residue_past_their_bound(monkeypatch, exact_value, kernel, rows, value):
    assert exact_value(from_rows(rows)) == value
    # the largest symmetric residue, far past the Hadamard bound
    monkeypatch.setattr(intlinalg, kernel, lambda rows, prime: prime // 2)
    with pytest.raises(ArithmeticError, match="exceeds its bound"):
        exact_value(from_rows(rows))


def test_determinant_refuses_a_value_past_its_bound(monkeypatch):
    a = from_rows([[2, 3], [4, 5]])
    assert determinant(a) == -2
    # a bound below |det| = 2, which only a faulty elimination could reach
    monkeypatch.setattr(intlinalg, "hadamard_bound", lambda rows: 1)
    with pytest.raises(ArithmeticError, match="exceeds its bound"):
        determinant(a)


def test_exact_values_past_the_largest_modulus_exceed_the_cap():
    # bounds of 2^12000 and 2^11300: twice either is past 2^11213 - 1
    wide = from_rows([[2**6000, 0], [0, 2**6000]])
    with pytest.raises(CapExceeded, match="the bound of 12001 bits"):
        _kasteleyn_determinant(wide)
    big = 2**11300
    with pytest.raises(CapExceeded, match="the bound of 11301 bits"):
        pfaffian_elimination(from_rows([[0, big, 0, 0], [-big, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]))
    # a bound of 2^11210 still fits the largest prime
    narrow = from_rows([[2**5605, 0], [0, -(2**5605)]])
    assert _kasteleyn_determinant(narrow) == determinant(narrow) == -(2**11210)
    # the dense determinant takes no modulus, so no cap
    assert determinant(wide) == 2**12000


@st.composite
def sparse_skew(draw):
    """A random sparse skew integer matrix of even order 0-14, entries in
    [-3, 3], as dense rows; some rows (and their columns) are all zero."""
    n = draw(st.sampled_from(range(0, 15, 2)))
    rows = [[0] * n for _ in range(n)]
    empty = draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else set()
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3)))
            if i not in empty and j not in empty:
                rows[i][j], rows[j][i] = v, -v
    return rows


# 7 and 31 make nonzero entries vanish and residues wrap during elimination
@given(sparse_skew(), st.sampled_from((7, 31) + KASTELEYN_PRIMES))
def test_pfaffian_mod_sparse_matches_the_matching_expansion(rows, prime):
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    pf = pfaffian_mod_sparse(sparse, prime)
    assert pf == pfaffian_by_matchings(from_rows(rows)) % prime  # the sign included
    assert pf * pf % prime == det_mod_sparse(sparse, prime)


def _pfaffian_via_one_update(a, b, d):
    """The sparse rows of the 4x4 skew matrix with A[0][1] = 1, A[0][2] = a,
    A[1][3] = b and A[2][3] = d, whose Pfaffian d - a * b the kernel reaches
    by pairing 0 with 1 and updating entry (2, 3) once."""
    return [{1: 1, 2: a}, {0: -1, 3: b}, {0: -a, 3: d}, {1: -b, 2: -d}]


def test_pfaffian_mod_sparse_edge_cases():
    # a narrow and a wide modulus
    for prime in (KASTELEYN_PRIMES[0], 2**521 - 1):
        half = prime // 2
        assert pfaffian_mod_sparse([], prime) == 1
        # row 1 is all zero, though rows 0, 2 and 3 pair off
        assert pfaffian_mod_sparse([{2: 1, 3: 1}, {}, {0: -1, 3: 1}, {0: -1, 2: -1}], prime) == 0
        assert pfaffian_mod_sparse([{1: 5}, {0: -5}], prime) == 5
        assert pfaffian_mod_sparse([{1: -5}, {0: 5}], prime) == prime - 5
        # the update 1 + 2 * half is prime itself; read as nonzero, it would
        # be the last pair's pivot
        assert pfaffian_mod_sparse(_pfaffian_via_one_update(2, -half, 1), prime) == 0
        # updates of -1, of half and of -half (the entry half + 1 is read as -half)
        assert pfaffian_mod_sparse(_pfaffian_via_one_update(1, 1, 0), prime) == prime - 1
        assert pfaffian_mod_sparse(_pfaffian_via_one_update(1, 1, half + 1), prime) == half
        assert pfaffian_mod_sparse(_pfaffian_via_one_update(1, -1, -half - 1), prime) == prime - half
        # entries past the modulus are reduced on entry: unreduced, the update
        # (d - 1) = prime * ((prime + 1)^2 + 1), a multiple of prime near
        # prime^3, would fold to prime * (prime + 2) and read as nonzero
        d = prime * ((prime + 1) ** 2 + 1) + 1
        assert pfaffian_mod_sparse(_pfaffian_via_one_update(1, 1, d), prime) == 0
        assert pfaffian_mod_sparse(_pfaffian_via_one_update(prime + 1, prime - 1, 3 * prime), prime) == 1
        with pytest.raises(ValueError):
            pfaffian_mod_sparse([{}], prime)
        with pytest.raises(ValueError):
            pfaffian_mod_sparse([{1: 1}, {0: 1}], prime)


def _lucas_lehmer(e: int) -> bool:
    """Is 2^e - 1 prime, for an odd prime e?"""
    q = 2**e - 1
    s = 4
    for _ in range(e - 2):
        s = s * s - 2
        s = (s & q) + (s >> e)  # 2^e = 1 mod q, so this keeps s mod q
        if s >= q:
            s -= q
    return s == 0


def test_kasteleyn_primes_are_mersenne_primes():
    exponents = [q.bit_length() for q in KASTELEYN_PRIMES]
    assert KASTELEYN_PRIMES == tuple(2**e - 1 for e in exponents)
    assert exponents == sorted(exponents)
    assert all(_lucas_lehmer(e) for e in exponents)
    # none is skipped up to 2^1279 - 1, where the search is cheap
    odd_primes = [e for e in range(61, 1280) if all(e % d for d in range(2, math.isqrt(e) + 1))]
    assert [e for e in odd_primes if _lucas_lehmer(e)] == exponents[:7]


def test_modulus_above_picks_the_smallest_sufficient_prime():
    # q recovers every |x| <= bound exactly when q > 2 * bound
    for smaller, q in zip((None,) + KASTELEYN_PRIMES, KASTELEYN_PRIMES):
        lowest = 0 if smaller is None else (smaller + 1) // 2
        assert modulus_above(lowest) == q
        assert modulus_above((q - 1) // 2) == q
    assert modulus_above((KASTELEYN_PRIMES[-1] + 1) // 2) is None


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_determinant_transpose_invariant(n, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    transpose = [[rows[j][i] for j in range(n)] for i in range(n)]
    assert determinant(from_rows(rows)) == determinant(from_rows(transpose))


def test_labeled_matrix_access():
    m = LabeledMatrix(["a", "b"], [0, "1+"], [[1, 2], [3, 4]])
    assert m.get("b", "1+") == 4
    assert m.get("b", 0) == 3
    assert _skew([[0, 1], [1, 0]]).skew_violations()
    assert not _skew([[0, 1], [-1, 0]]).skew_violations()


def test_labeled_matrix_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        LabeledMatrix(["a", "a"], [0, 1], [[1, 2], [3, 4]])

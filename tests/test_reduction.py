import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from hexholes.intlinalg import LabeledMatrix, determinant, pfaffian_elimination
from hexholes.paths import diagonal_lgv_matrix, endline_skew_matrix
from hexholes.reduction import (
    StructureError,
    StructuredSkew,
    bridge_keys,
    check_hypotheses,
    difference_transform,
    fold_transform,
    hole_keys,
    random_structured,
    reduced_matrix_direct,
    verify_pfaffian_reduction,
)
from hexholes.regions import RegionSpec
from hexholes.verify import iter_specs

from oracles import from_rows, pfaffian_by_matchings

SEED = RegionSpec(2, 1, (1,))


def grid_specs():
    return iter_specs(range(1, 6), (1, 2), (0, 1, 2))


def test_spec_matrices_satisfy_hypotheses():
    for spec in grid_specs():
        ss = check_hypotheses(endline_skew_matrix(spec))
        assert ss.m == spec.m and ss.l == spec.l


def test_random_instances_satisfy_hypotheses():
    rng = random.Random(3)
    for _ in range(20):
        ss = random_structured(rng, rng.randint(1, 4), rng.randint(0, 2))
        check_hypotheses(ss.to_matrix())


def test_perturbed_matrix_is_rejected_with_named_rule():
    # the free entry y[1, 1-] is read off the matrix, so the first entry
    # that differs from the rebuilt matrix is its mirror y[-1, 1-]
    rng = random.Random(5)
    ss = random_structured(rng, 2, 1)
    with pytest.raises(StructureError, match=r"^bridge block entry \(-1, 1-\) is "):
        check_hypotheses(_changed(ss.to_matrix(), {(1, "1-"): 1}))


def _changed(mat: LabeledMatrix, deltas: dict) -> LabeledMatrix:
    """A copy of mat with deltas[(row, col)] added to each named entry."""
    rows = [row[:] for row in mat.rows]
    for (r, c), delta in deltas.items():
        rows[mat.row_labels.index(r)][mat.col_labels.index(c)] += delta
    return LabeledMatrix(mat.row_labels, mat.col_labels, rows)


@st.composite
def structured_skews(draw):
    m, l = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    value = st.integers(-(2**70), 2**70)
    band = tuple(draw(st.lists(value, min_size=2 * m - 1, max_size=2 * m - 1)))
    y = {key: draw(value) for key in bridge_keys(m, l)}
    return StructuredSkew(m=m, l=l, band=band, y=y, z={key: draw(value) for key in hole_keys(l)})


@settings(max_examples=150, deadline=None)
@given(structured_skews())
def test_free_entries_round_trip_through_the_matrix(ss):
    assert check_hypotheses(ss.to_matrix()) == ss


# sha256 of repr(random_structured(random.Random(s), m, l).to_matrix().rows),
# first 16 hex digits: the seeded instances, and with them the benchmark's
# references of the random reduction suite, depend on the draw order
SEEDED_DIGESTS = {
    (0, 1, 0): "4660446145cc5dd3",
    (1, 1, 4): "c022105afa5f83ab",
    (2, 2, 1): "9b05bb47181c5899",
    (3, 3, 2): "a5359fd88101f1a0",
    (4, 4, 4): "c252517073bba468",
    (5, 6, 3): "557633db6e053dc1",
}


@pytest.mark.parametrize("s, m, l", sorted(SEEDED_DIGESTS))
def test_seeded_instances_keep_their_draw_order(s, m, l):
    rows = random_structured(random.Random(s), m, l).to_matrix().rows
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == SEEDED_DIGESTS[(s, m, l)]


# one entry off its rule at a time, on labels -2..3, 1-, 2-, 1+, 2+; the
# free entries are the band along row -2, y[1..3, t-], y[2..3, t+] and
# y[-2, t+], and the minus/plus and plus/plus hole pairs in label order
RULE_BREAKS = {
    "band entry": ((0, 2), (0, 2), "band"),
    "band skew partner": ((2, 0), (2, 0), "band"),
    "diagonal entry": ((1, 1), (1, 1), "band"),
    "free band entry, read off row -2": ((-2, 0), (-1, 1), "band"),
    "(i, t-) entry": ((-1, "2-"), (-1, "2-"), "bridge"),
    "self-mirror zero (0, t-)": ((0, "1-"), (0, "1-"), "bridge"),
    "self-mirror zero (1, t+)": ((1, "2+"), (1, "2+"), "bridge"),
    "(i, t+) entry": ((0, "1+"), (0, "1+"), "bridge"),
    "bridge skew partner": (("1+", 3), ("1+", 3), "bridge"),
    "minus/minus entry": (("1-", "2-"), ("1-", "2-"), "hole"),
    "hole skew partner": (("2+", "1-"), ("2+", "1-"), "hole"),
    "hole diagonal entry": (("2+", "2+"), ("2+", "2+"), "hole"),
}


@pytest.mark.parametrize("changed, first, block", RULE_BREAKS.values(), ids=list(RULE_BREAKS))
def test_each_rule_rejects_an_entry_off_it(changed, first, block):
    mat = random_structured(random.Random(5), 3, 2).to_matrix()
    with pytest.raises(StructureError) as err:
        check_hypotheses(_changed(mat, {changed: 1}))
    assert str(err.value).startswith(f"{block} block entry ({first[0]}, {first[1]}) is ")


def test_a_free_entry_moved_with_its_mirror_and_skew_partners_is_accepted():
    ss = random_structured(random.Random(5), 3, 2)
    moved = {(2, "1+"): 5, (0, "1+"): -5, ("1+", 2): -5, ("1+", 0): 5, ("1-", "2+"): 7, ("2+", "1-"): -7}
    got = check_hypotheses(_changed(ss.to_matrix(), moved))
    assert got.y == {**ss.y, (2, "1+"): ss.y[(2, "1+")] + 5}
    assert got.z == {**ss.z, ("1-", "2+"): ss.z[("1-", "2+")] + 7}
    assert got.band == ss.band


def test_fold_preserves_pfaffian_and_zeroes_blocks():
    rng = random.Random(9)
    for _ in range(25):
        m = rng.randint(1, 4)
        l = rng.randint(0, 2)
        a = random_structured(rng, m, l).to_matrix()
        folded = fold_transform(a)
        assert pfaffian_elimination(folded) == pfaffian_elimination(a)
        for i in range(-m + 1, 1):
            for j in range(-m + 1, 1):
                assert folded.get(i, j) == 0
            for t in range(1, l + 1):
                assert folded.get(i, f"{t}-") == 0
                assert folded.get(i, f"{t}+") == a.get(i, f"{t}+")


def test_seed_reduced_block():
    b = verify_pfaffian_reduction(endline_skew_matrix(SEED)).reduced
    assert b.rows == [[10, 3], [3, 1]]
    assert determinant(b) == 1


def test_reduced_block_no_holes_is_band_sums():
    # l = 0: the reduced block is made of band sums alone
    spec = RegionSpec(3, 2)
    a = endline_skew_matrix(spec)
    ss = check_hypotheses(a)
    b = reduced_matrix_direct(ss)
    assert b.row_labels == (1, 2) and b.col_labels == (1, 2)
    assert b.get(1, 1) == ss.x(1)
    assert b.get(1, 2) == ss.x(2)
    assert b.get(2, 2) == ss.x(1) + ss.x(3)


def holds(cert):
    """The certificate's two conditions: Pf = sign * det of the reduced
    block, and the block read out of the fold equals the one built directly."""
    return cert.pfaffian == cert.sign * cert.reduced_det and cert.first_bad_reduced_entry is None


def test_reduced_block_m1_l0():
    rng = random.Random(1)
    ss = random_structured(rng, 1, 0)
    b = reduced_matrix_direct(ss)
    assert b.rows == [[ss.x(1)]]
    cert = verify_pfaffian_reduction(ss.to_matrix())
    assert holds(cert) and cert.pfaffian == ss.x(1)


def test_reduction_random_suite():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 4)
        l = rng.randint(0, 2)
        cert = verify_pfaffian_reduction(random_structured(rng, m, l).to_matrix())
        assert holds(cert), (m, l, cert)


def test_reduction_zero_matrix():
    labels = [0, 1]
    zero = LabeledMatrix(labels, labels, [[0, 0], [0, 0]])
    cert = verify_pfaffian_reduction(zero)
    assert holds(cert) and cert.pfaffian == 0 and cert.reduced_det == 0


def test_reduction_on_spec_matrices():
    for spec in grid_specs():
        cert = verify_pfaffian_reduction(endline_skew_matrix(spec))
        assert holds(cert), spec.text()


def test_difference_transform_identity_for_m1():
    b = verify_pfaffian_reduction(endline_skew_matrix(SEED)).reduced
    assert difference_transform(b).rows == b.rows


def test_difference_transform_lands_on_lgv_matrix():
    for spec in grid_specs():
        b = verify_pfaffian_reduction(endline_skew_matrix(spec)).reduced
        transformed = difference_transform(b)
        target = diagonal_lgv_matrix(spec)
        assert transformed.rows == target.rows, spec.text()


def test_difference_transform_preserves_determinant():
    rng = random.Random(21)
    for _ in range(20):
        ss = random_structured(rng, rng.randint(1, 3), rng.randint(0, 2))
        b = reduced_matrix_direct(ss)
        assert determinant(difference_transform(b)) == determinant(b)


def test_block_pfaffian_identity():
    # Pf [[0, D], [-D^t, E]] = (-1)^C(d,2) det(D) for any skew E
    rng = random.Random(31)
    for d in range(1, 5):
        for _ in range(20):
            dmat = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            emat = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    v = rng.randint(-9, 9)
                    emat[i][j] = v
                    emat[j][i] = -v
            rows = []
            for i in range(d):
                rows.append([0] * d + dmat[i])
            for i in range(d):
                rows.append([-dmat[j][i] for j in range(d)] + emat[i])
            a = from_rows(rows)
            sign = -1 if (d * (d - 1) // 2) % 2 else 1
            want = sign * determinant(from_rows(dmat))
            assert pfaffian_by_matchings(a) == want
            assert pfaffian_elimination(a) == want

import pytest
from hypothesis import given, settings, strategies as st

from hexholes import paths
from hexholes.closedforms import symmetric_box_tilings
from hexholes.intlinalg import LabeledMatrix, binomial, determinant, pfaffian_elimination, signed_range_sum
from hexholes.paths import (
    EndlineFamilies,
    brute_force_endline_families,
    brute_force_fixed_families,
    count_free_via_pfaffian,
    count_plain_via_lgv,
    count_upper_via_lgv,
    count_weighted2_via_det,
    cut_line_points,
    diagonal_lgv_matrix,
    end_point,
    endline_skew_matrix,
    free_endpoint_pfaffian_matrix,
    free_path_count,
    left_piece_matrix,
    lgv_matrix,
    reflectable_gf,
    start_point,
)
from hexholes.reduction import (
    check_hypotheses,
    endpoint_labels,
    hole_labels,
    hole_sign,
    int_labels,
    minus_label,
    parse_hole_label,
    plus_label,
)
from hexholes.regions import CapExceeded, RegionSpec, build_region, left_half_free, lower_half_weighted, upper_half
from hexholes.tiler import count_free, count_plain, count_weighted2, split_by_axis
from hexholes.verify import iter_specs

from oracles import pfaffian_by_matchings, reflectable_gf_dp

SEED = RegionSpec(2, 1, (1,))


def family_points(spec, labels=None):
    """The starts of the paths named by the labels (every endpoint label of
    the skew matrix by default) and their mirrored ends."""
    if labels is None:
        labels = endpoint_labels(spec.m, spec.l)
    return [start_point(spec, lab) for lab in labels], [end_point(spec, lab) for lab in labels]


def generic_lgv_matrix(spec):
    """The LGV matrix of reflection generating functions between the points
    of the closed form's labels: starts by column, ends by row."""
    labels = diagonal_lgv_matrix(spec).col_labels
    return lgv_matrix(reflectable_gf, *family_points(spec, labels))


def test_free_path_count():
    assert free_path_count((0, 0), (2, 1)) == 3
    assert free_path_count((1, 0), (1, 0)) == 1
    assert free_path_count((2, 3), (1, 1)) == 0


def test_reflectable_gf_values():
    assert reflectable_gf((1, 0), (2, 1)) == 3
    assert reflectable_gf((1, 0), (3, 0)) == 1
    assert reflectable_gf((4, 2), (4, 2)) == 1
    with pytest.raises(ValueError):
        reflectable_gf((1, 1), (3, 0))


def test_reflectable_gf_matches_dp():
    for c in range(7):
        for d in range(c):
            for a in range(c + 1):
                for b in range(a):
                    assert reflectable_gf((a, b), (c, d)) == reflectable_gf_dp(a, b, c, d)


def test_seed_skew_matrix_entries():
    mat = endline_skew_matrix(SEED)
    assert mat.get(0, 1) == 10
    assert mat.get(0, "1-") == 0
    assert mat.get(0, "1+") == 3
    assert mat.get(1, "1-") == -3
    assert mat.get(1, "1+") == 0
    assert mat.get("1-", "1+") == 1
    assert all(mat.get(lab, lab) == 0 for lab in mat.row_labels)


def test_hole_hole_zero_rules():
    spec = RegionSpec(6, 1, (1, 2))
    mat = endline_skew_matrix(spec)
    assert mat.get("1-", "2-") == 0
    assert mat.get("1+", "2+") == 0
    assert mat.get("1-", "2+") != 0


def test_seed_pfaffian_count():
    assert pfaffian_by_matchings(endline_skew_matrix(SEED)) == 1
    assert count_free_via_pfaffian(SEED) == 1
    assert hole_sign(0) == hole_sign(1) == 1
    assert hole_sign(2) == -1
    assert hole_sign(3) == -1


def test_seed_lgv_matrix_and_det():
    mat = diagonal_lgv_matrix(SEED)
    assert mat.get(1, 1) == 10
    assert mat.get(1, "1+") == 3
    assert mat.get("1+", 1) == 3
    assert mat.get("1+", "1+") == 1
    assert count_weighted2_via_det(SEED) == 1


def test_lgv_entries_are_reflection_gfs():
    for spec in iter_specs(range(1, 5), (1, 2), (0, 1, 2)):
        assert diagonal_lgv_matrix(spec).rows == generic_lgv_matrix(spec).rows, spec.text()


HOLE_SPECS = iter_specs(range(1, 9), (1, 2, 3), (0, 1, 2))
RHOMBUS_SPECS = iter_specs((2, 4, 6), (1, 2), (0, 1, 2), range(1, 5))


def rhombus_points(spec):
    """The rhombus's points (a, N+1-a), a = n/2+1 .. n/2+x, on the cut line
    x + y = N + 1 of the frame side N = n + x."""
    side = spec.frame_side
    return [(a, side + 1 - a) for a in range(spec.n // 2 + 1, spec.n // 2 + spec.central_x + 1)]


def test_the_start_points_and_their_mirror_are_the_whole_region_lgv():
    # every path of the skew matrix's labels, from its start to its mirrored
    # end, counted by free paths: the determinant is the plain tiling count
    assert len(HOLE_SPECS) == 114
    for spec in HOLE_SPECS:
        det = determinant(lgv_matrix(free_path_count, *family_points(spec)))
        assert det == count_plain_via_lgv(spec) == count_plain(build_region(spec)) > 0, spec.text()


def test_the_rhombus_points_are_zero_length_paths_of_the_whole_region_lgv():
    # the rhombus's points both start and end a path
    assert len(RHOMBUS_SPECS) == 104
    for spec in RHOMBUS_SPECS:
        gap = rhombus_points(spec)
        starts, ends = family_points(spec)
        det = determinant(lgv_matrix(free_path_count, starts + gap, ends + gap))
        assert det == count_plain_via_lgv(spec) == count_plain(build_region(spec)) > 0, spec.text()


def test_the_paths_above_the_diagonal_are_the_upper_half_lgv():
    # the starts with x < y, rhombus points included, each to its mirror,
    # by the paths that never touch x = y
    for spec in HOLE_SPECS + RHOMBUS_SPECS:
        assert count_upper_via_lgv(spec) == count_plain(upper_half(build_region(spec))) > 0, spec.text()


def test_paths_that_may_touch_the_diagonal_overcount_the_upper_half():
    # the negative control: mirrored through x = y + 1 instead, the paths
    # may touch x = y, and the determinant is no longer the upper half's count
    spec = RegionSpec(2, 1)
    starts, ends = family_points(spec, [0])  # the one start above x = y, (0, 1)
    touching = lambda a, b: free_path_count(a, b) - free_path_count((a[1] + 1, a[0] - 1), b)
    upper = count_plain(upper_half(build_region(spec)))
    assert count_upper_via_lgv(spec) == upper == 2
    assert determinant(lgv_matrix(touching, starts, ends)) == 5 != upper


def double_sum_matrix(starts, ipoints) -> LabeledMatrix:
    """The definition of free_endpoint_pfaffian_matrix, summed literally
    over every pair u < v of endpoint indices."""
    counts = [[free_path_count(s, e) for e in ipoints] for s in starts]

    def entry(i, j):
        return sum(
            counts[i][u] * counts[j][v] - counts[j][u] * counts[i][v]
            for u in range(len(ipoints))
            for v in range(u + 1, len(ipoints))
        )

    labels = list(range(len(starts)))
    return LabeledMatrix.build(labels, labels, entry)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 4), st.integers(-3, 4)), max_size=6),
    st.lists(st.tuples(st.integers(-4, 6), st.integers(-4, 6)), max_size=9),
)
def test_running_sums_match_definition_on_random_points(starts, ipoints):
    # endpoints come from a wider box than the starts, so many lie south or
    # west of some start and no path reaches them
    built = free_endpoint_pfaffian_matrix(starts, ipoints)
    assert built == double_sum_matrix(starts, ipoints)
    assert built.skew_violations() == []


def test_closed_skew_matrix_matches_double_sums():
    for spec in iter_specs(range(1, 5), (1, 2), (0, 1, 2)) + [RegionSpec(12, 3, (2, 5, 6))]:
        closed = endline_skew_matrix(spec)
        starts, _ = family_points(spec)
        generic = free_endpoint_pfaffian_matrix(starts, cut_line_points(spec))
        assert generic == double_sum_matrix(starts, cut_line_points(spec)), spec.text()
        assert closed.rows == generic.rows, spec.text()


def test_closed_bridge_formula_obeys_the_bridge_antisymmetries():
    # endline_skew_matrix computes only the free bridge entries; the signed
    # binomial sums it reads there hold at every mirrored entry too, which is
    # what lets the bridge accessor fill those in
    for spec in iter_specs(range(1, 7), (1, 2, 3), (0, 1, 2)):
        n = spec.n
        bridges = check_hypotheses(endline_skew_matrix(spec)).bridges()
        for lab in hole_labels(spec.l):
            t, minus = parse_hole_label(lab)
            k = spec.holes[t - 1]
            bridge = lambda r: binomial(2 * n - 2 * k, n - k + r)
            for i in int_labels(spec.m):
                want = signed_range_sum(bridge, i + 1, -i) if minus else signed_range_sum(bridge, i, 1 - i)
                assert bridges[(i, lab)] == want, (spec.text(), i, lab)


@st.composite
def closed_form_specs(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 5))
    holes = draw(st.sets(st.integers(1, n // 2), max_size=4)) if n >= 2 else set()
    return RegionSpec(n, m, tuple(sorted(holes)))


@settings(max_examples=100, deadline=None)
@given(closed_form_specs())
def test_closed_skew_matrix_matches_generic_matrix_on_random_specs(spec):
    closed = endline_skew_matrix(spec)
    starts, _ = family_points(spec)
    generic = free_endpoint_pfaffian_matrix(starts, cut_line_points(spec))
    assert closed.rows == generic.rows
    ss = check_hypotheses(closed)
    assert (ss.m, ss.l) == (spec.m, spec.l)
    assert diagonal_lgv_matrix(spec).rows == generic_lgv_matrix(spec).rows


def test_widening_the_cut_line_changes_nothing():
    spec = RegionSpec(3, 2, (1,))
    starts, _ = family_points(spec)
    narrow = free_endpoint_pfaffian_matrix(starts, cut_line_points(spec))
    n, m = spec.n, spec.m
    wide = [(j, n + 1 - j) for j in range(-m - 4, n + m + 5)]
    widened = free_endpoint_pfaffian_matrix(starts, wide)
    assert narrow.rows == widened.rows
    assert widened == double_sum_matrix(starts, wide)


def test_pfaffian_route_matches_tiler():
    for spec in iter_specs(range(1, 5), (1, 2), (0, 1, 2)):
        region = build_region(spec)
        assert count_free_via_pfaffian(spec) == count_free(left_half_free(region))
        assert count_weighted2_via_det(spec) == count_weighted2(
            lower_half_weighted(region)
        )


@pytest.mark.parametrize("n, m", [(4, 1), (50, 14), (400, 15)])
def test_hole_free_weighted_half_is_andrews_count(n, m):
    # W of the hole-free hexagon is the count of symmetric plane partitions
    # in an n x n x 2m box; at n=400 m=15 the LGV determinant has 10,932
    # bits, past the Hadamard bound any modulus of KASTELEYN_PRIMES recovers
    assert count_weighted2_via_det(RegionSpec(n, m)) == symmetric_box_tilings(n, 2 * m)


def test_two_start_pfaffian_is_a_path_count():
    # second start already on the cut line: its path is forced empty and the
    # Pfaffian reduces to the number of two-step paths avoiding that vertex
    starts = [(0, 1), (2, 1)]
    ipoints = [(0, 3), (1, 2), (2, 1), (3, 0)]
    q = free_endpoint_pfaffian_matrix(starts, ipoints)
    families = brute_force_endline_families(starts, ipoints)
    assert pfaffian_elimination(q) == 3
    assert families.signed_total == 3
    assert families.signs == {1}


def test_single_path_family_is_free_count():
    assert brute_force_fixed_families([(0, 0)], [(2, 1)]) == free_path_count(
        (0, 0), (2, 1)
    )


def test_crossing_forced_family_is_zero():
    assert brute_force_fixed_families([(0, 0), (1, 0)], [(1, 1), (0, 1)]) == 0


NO_FAMILY = EndlineFamilies(0, frozenset())


def test_a_start_with_no_path_gives_no_family():
    # nothing lies weakly north-east of (5, 5)
    for starts in ([(0, 0), (5, 5)], [(5, 5), (0, 0)]):
        assert brute_force_endline_families(starts, [(1, 1), (2, 0)]) == NO_FAMILY
        assert brute_force_fixed_families(starts, [(1, 1), (2, 0)]) == 0


def test_family_oracles_stop_at_the_cap(monkeypatch):
    # six paths run from (0, 0) to (2, 2)
    monkeypatch.setattr(paths, "FAMILY_CAP", 6)
    assert brute_force_endline_families([(0, 0)], [(2, 2)]).signed_total == 6
    assert brute_force_fixed_families([(0, 0)], [(2, 2)]) == 6
    monkeypatch.setattr(paths, "FAMILY_CAP", 5)
    with pytest.raises(CapExceeded):
        brute_force_endline_families([(0, 0)], [(2, 2)])
    with pytest.raises(CapExceeded):
        brute_force_fixed_families([(0, 0)], [(2, 2)])
    # start by start: the cap is checked before a later start's empty list,
    # and an earlier start's empty list ends the search before the cap
    with pytest.raises(CapExceeded):
        brute_force_endline_families([(0, 0), (5, 5)], [(2, 2)])
    with pytest.raises(CapExceeded):
        brute_force_fixed_families([(0, 0), (5, 5)], [(2, 2), (0, 0)])
    assert brute_force_endline_families([(5, 5), (0, 0)], [(2, 2)]) == NO_FAMILY
    assert brute_force_fixed_families([(5, 5), (0, 0)], [(0, 0), (2, 2)]) == 0


def test_paths_meeting_at_one_endpoint_form_no_family():
    # each start's only path ends at (1, 1)
    starts = [(0, 1), (1, 0)]
    assert brute_force_endline_families(starts, [(1, 1)]) == NO_FAMILY
    assert brute_force_fixed_families(starts, [(1, 1), (1, 1)]) == 0


def test_brute_force_families_match_formulas():
    for spec in [RegionSpec(2, 1, (1,)), RegionSpec(3, 1, (1,)), RegionSpec(2, 2)]:
        starts, _ = family_points(spec)
        fam = brute_force_endline_families(starts, cut_line_points(spec))
        assert fam.signs <= {hole_sign(spec.l)}
        assert hole_sign(spec.l) * fam.signed_total == count_free_via_pfaffian(spec), spec.text()
        labels = diagonal_lgv_matrix(spec).col_labels
        weighted = brute_force_fixed_families(*family_points(spec, labels), diagonal=True)
        assert weighted == count_weighted2_via_det(spec)


def assert_pieces_match_tiler(spec):
    for ranks, cnt in split_by_axis(left_half_free(build_region(spec))):
        assert hole_sign(spec.l) * determinant(left_piece_matrix(spec, ranks)) == cnt, (spec.text(), ranks)


@st.composite
def axis_split_specs(draw):
    n = draw(st.integers(1, 7))
    holes = tuple(k for k in range(1, n // 2 + 1) if draw(st.booleans()))
    x = draw(st.integers(0, 2)) if n % 2 == 0 else 0
    return RegionSpec(n, draw(st.integers(1, 2)), holes, x)


@settings(max_examples=40, deadline=None)
@given(axis_split_specs())
def test_left_piece_determinants_match_tiler(spec):
    assert_pieces_match_tiler(spec)


@pytest.mark.parametrize("spec", [RegionSpec(4, 1, (2,)), RegionSpec(6, 2, (1, 3))], ids=RegionSpec.text)
def test_a_hole_on_the_cut_line_ends_two_zero_length_paths(spec):
    # k = n/2 starts both its paths on the cut line x + y = n + 1
    on_cut = {start_point(spec, minus_label(spec.l)), start_point(spec, plus_label(spec.l))}
    assert on_cut <= set(cut_line_points(spec))
    assert_pieces_match_tiler(spec)


def test_left_piece_matrix_refuses_too_few_distinct_ranks_or_a_rank_off_the_axis():
    # n=6 m=1 k=1,3 has 2m + n = 8 cut line points, two of them the starts of
    # hole 3, so 6 slots, and a tiling crosses n - 2l = 2 of them; (1, 1) has
    # one distinct rank, and (0, 0, 1) has two but lists three
    spec = RegionSpec(6, 1, (1, 3))
    assert {len(ranks) for ranks, _ in split_by_axis(left_half_free(build_region(spec)))} == {2}
    assert left_piece_matrix(spec, (0, 5)).order == 6
    for ranks in [(0,), (), (1, 1), (0, 0, 1), (0, 6), (-1, 2)]:
        with pytest.raises(ValueError, match="need 2 distinct ranks below 6"):
            left_piece_matrix(spec, ranks)

from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from hexholes import intlinalg, tiler, verify
from hexholes.closedforms import box_tilings
from hexholes.paths import count_free_via_pfaffian, count_weighted2_via_det
from hexholes.regions import (
    CapExceeded,
    Region,
    RegionSpec,
    build_hexagon,
    build_region,
    left_half_free,
    lower_half_weighted,
    punch_symmetric_triangle_pair,
    upper_half,
)
from hexholes.tiler import (
    count_fixed_via_enumeration,
    count_free,
    count_plain,
    count_via_enumeration,
    count_weighted2,
    enumerate_tilings,
    split_by_axis,
)
from hexholes.verify import DEFAULT_GRID, RHOMBUS_BOUNDS, iter_specs

from oracles import _profile_dp, symmetric_via_enumeration


def test_enumerate_smallest_hexagon():
    region = build_hexagon(1, 1)
    tilings = list(enumerate_tilings(region))
    assert len(tilings) == 3  # plane partitions in a 2x1x1 box
    assert len(set(tilings)) == 3
    for tiling in tilings:
        covered = [t for tile in tiling for t in tile]
        assert sorted(covered) == sorted(region.triangles)


def test_enumerate_untileable_region():
    region = Region(side=1, m=1, triangles=frozenset({(0, 0)}))
    assert list(enumerate_tilings(region)) == []


def test_enumeration_is_deterministic():
    region = build_hexagon(2, 1)
    assert list(enumerate_tilings(region)) == list(enumerate_tilings(region))


def test_enumeration_cap(monkeypatch):
    region = build_hexagon(3, 1)  # 175 tilings, 35 fixed by reflect_v
    monkeypatch.setattr(tiler, "ENUM_LIMIT", 10)
    with pytest.raises(CapExceeded, match="more than 10 tilings"):
        list(enumerate_tilings(region))
    # the mirror-constrained enumeration caps the fixed tilings
    monkeypatch.setattr(tiler, "ENUM_LIMIT", 35)
    assert count_fixed_via_enumeration(region, region.reflect_v) == 35
    monkeypatch.setattr(tiler, "ENUM_LIMIT", 34)
    with pytest.raises(CapExceeded, match="more than 34 fixed tilings"):
        count_fixed_via_enumeration(region, region.reflect_v)
    monkeypatch.undo()
    monkeypatch.setattr(tiler, "TRIANGLE_CAP", 5)
    with pytest.raises(CapExceeded, match="cap is 5"):
        list(enumerate_tilings(region))
    with pytest.raises(CapExceeded, match="cap is 5"):
        count_fixed_via_enumeration(region, region.reflect_v)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_counts_match_box_formula(n, m):
    region = build_hexagon(n, m)
    expected = box_tilings(2 * m, n, n)
    assert count_plain(region) == expected
    assert count_via_enumeration(region) == expected


def test_dp_matches_enumeration_on_punched_regions():
    for spec in iter_specs(range(1, 5), (1,), (0, 1, 2)):
        region = build_region(spec)
        assert count_plain(region) == count_via_enumeration(region)
        half = left_half_free(region)
        assert count_free(half) == count_via_enumeration(half)
        lower = lower_half_weighted(region)
        assert count_weighted2(lower) == count_via_enumeration(lower)


def test_weighted2_seed_values():
    # the weighted lower half of the fully punched small instances
    assert count_weighted2(lower_half_weighted(build_region(RegionSpec(2, 1, (1,))))) == 1
    assert count_weighted2(lower_half_weighted(build_region(RegionSpec(3, 1, (1,))))) == 5


def _three_enumerations(region: Region) -> tuple[int, int, int]:
    """(tilings, tilings fixed by reflect_h, tilings fixed by reflect_v) by
    the library's two enumerators, in the order of the filter oracle."""
    return (
        count_via_enumeration(region),
        count_fixed_via_enumeration(region, region.reflect_h),
        count_fixed_via_enumeration(region, region.reflect_v),
    )


def test_symmetric_filters_match_half_counts():
    for spec in iter_specs(range(1, 5), (1, 2), (0, 1)):
        region = build_region(spec)
        if count_plain(region) > 5000:
            continue
        assert _three_enumerations(region) == (
            count_plain(region),
            count_plain(upper_half(region)),
            count_free(left_half_free(region)),
        )


def test_fixed_enumeration_matches_the_filter_on_the_suite_grids():
    # every region of the default grid and of the rhombus suite's bounds
    # within the enumeration reach, each once
    specs = iter_specs(**DEFAULT_GRID) + iter_specs(**{**DEFAULT_GRID, **RHOMBUS_BOUNDS})
    regions = [r for r in dict.fromkeys(map(build_region, specs)) if tiler.enumerable(r, lambda: count_plain(r))]
    assert len(regions) == 37
    for region in regions:
        assert _three_enumerations(region) == symmetric_via_enumeration(region)


def test_fixed_enumeration_places_half_lozenges_with_their_images():
    # the free half is fixed by reflect_h alone; at odd n the cut row's
    # center is a free up, whose half lozenge is its own image, and the
    # other half lozenges pair off across the axis
    for spec in iter_specs(range(1, 5), (1, 2), (0, 1), (0, 1, 2)):
        half = left_half_free(build_region(spec))
        if count_free(half) > 5000:
            continue
        ref = half.reflect_h
        fixed = sum(
            all(tuple(sorted(map(ref, tile))) in tiling for tile in tiling) for tiling in enumerate_tilings(half)
        )
        assert count_fixed_via_enumeration(half, ref) == fixed, spec.text()


def test_symmetric_tilings_cover_axis_positions():
    region = build_region(RegionSpec(3, 1, (1,)))
    ref = region.reflect_h
    axis_tiles = {
        tuple(sorted((up, down))) for up, down in region.axis_positions()
    }
    for tiling in enumerate_tilings(region):
        if frozenset(tuple(sorted(ref(t) for t in tile)) for tile in tiling) == tiling:
            assert axis_tiles <= tiling


@pytest.mark.parametrize(
    "triangles, fixed",
    [
        ({(0, p) for p in range(5)}, (0, None)),  # fixed by reflect_h only, and odd
        ({(0, 0), (1, 0)}, (None, 1)),  # fixed by reflect_v only: one lozenge, its own image
        ({(0, 0), (0, 1)}, (None, None)),  # fixed by neither
    ],
    ids=["triangles0", "triangles1", "triangles2"],
)
def test_symmetry_oracle_refuses_asymmetric_regions(triangles, fixed):
    # the filter oracle needs both reflections; the mirror-constrained
    # enumeration refuses only a reflection that moves the region (None)
    region = Region(side=1, m=1, triangles=frozenset(triangles))
    with pytest.raises(ValueError):
        symmetric_via_enumeration(region)
    for ref, expected in zip((region.reflect_h, region.reflect_v), fixed):
        if expected is None:
            with pytest.raises(ValueError, match="needs a region fixed by the reflection"):
                count_fixed_via_enumeration(region, ref)
        else:
            assert count_fixed_via_enumeration(region, ref) == expected


def test_every_tiling_bisects_n_lozenges():
    spec = RegionSpec(2, 1, (), 1)
    region = build_region(spec)
    cut_row = region.side - 1
    for tiling in enumerate_tilings(region):
        bisected = [
            tile
            for tile in tiling
            if len(tile) == 2 and tile[0][0] == cut_row and tile[1][0] == cut_row + 1
        ]
        assert len(bisected) == spec.n


def test_split_by_axis_counts():
    spec = RegionSpec(2, 1, (), 1)
    region = build_region(spec)
    table = split_by_axis(left_half_free(region))
    assert len(table) == 6  # C(n + 2m, n) subsets of the available slots
    assert [ranks for ranks, _ in table] == list(combinations(range(4), 2))
    assert sum(c * c for _, c in table) == count_plain(region)
    assert sum(c for _, c in table) == count_free(left_half_free(region))


def test_split_by_axis_ranks_the_slots_left_to_right():
    # a half without its top-left lozenge is not reflect_h-symmetric, so a
    # slot set and its mirror image count apart; rank r is the slot (1, 2r)
    half = left_half_free(build_hexagon(2, 1))
    half = half._replace(triangles=half.triangles - {(0, 0), (0, 1)})
    table = split_by_axis(half)
    assert table == [((0, 1), 0), ((0, 2), 1), ((0, 3), 2), ((1, 2), 1), ((1, 3), 2), ((2, 3), 1)]
    for ranks, cnt in table:
        assert count_plain(half._replace(triangles=half.triangles - {(1, 2 * r) for r in ranks})) == cnt


@pytest.mark.parametrize("text", ["n=4 m=1 k=1", "n=5 m=1 k=2", "n=6 m=2 k=1,3 x=2"])
def test_split_by_axis_holds_on_holey_regions(text):
    # each hole pair leaves two fewer slots to cross the cut, and the split
    # holds on the holey half as on the hole-free one
    spec = RegionSpec.parse(text)
    region = build_region(spec)
    half = left_half_free(region)
    table = split_by_axis(half)
    assert {len(ranks) for ranks, _ in table} == {spec.n - 2 * spec.l}
    assert sum(c * c for _, c in table) == count_plain(region)
    assert sum(c for _, c in table) == count_free(half)


def _five_counts(spec):
    region = build_region(spec)
    return (
        count_plain(region),
        count_plain(upper_half(region)),
        count_free(left_half_free(region)),
        count_free(left_half_free(region)),
        count_weighted2(lower_half_weighted(region)),
    )


def test_five_counts_of_small_regions():
    assert _five_counts(RegionSpec(2, 1, (1,))) == (1, 1, 1, 1, 1)
    plain, hsym, vsym, free, weighted2 = _five_counts(RegionSpec(2, 1))
    assert plain == hsym * vsym == 20
    assert vsym == free == 10
    assert weighted2 == 10


def test_factorization_with_weighted_half():
    # plain = upper * weighted2 in integer form, small sweep
    for spec in iter_specs(range(1, 5), (1, 2), (0, 1)):
        region = build_region(spec)
        lhs = count_plain(region)
        rhs = count_plain(upper_half(region)) * count_weighted2(lower_half_weighted(region))
        assert lhs == rhs, spec.text()


def _less_orbits(region: Region, cells) -> Region:
    """The region less the orbit of each cell under both reflections."""
    orbits = set()
    for t in cells:
        for u in (t, region.reflect_h(t)):
            orbits |= {u, region.reflect_v(u)}
    return region._replace(triangles=region.triangles - orbits)


def test_a_symmetric_region_off_the_hole_shape_breaks_only_the_factorization():
    # a negative control: M = M_h * M_v needs the holes' shape, while
    # Ciucu's factorization theorem (JCTA 1997), M = M_+ * W, needs only the
    # symmetry across the hole axis
    region = _less_orbits(build_hexagon(2, 1), [(1, 0)])
    tilings, hsym, vsym = _three_enumerations(region)
    assert (tilings, hsym, vsym) == symmetric_via_enumeration(region)
    assert (tilings, hsym, vsym) == (9, 1, 3) and tilings != hsym * vsym
    assert count_plain(upper_half(region)) * count_weighted2(lower_half_weighted(region)) == 9


@st.composite
def orbit_removed_hexagons(draw):
    hexagon = build_hexagon(draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    cells = sorted(hexagon.triangles)
    return _less_orbits(hexagon, draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2)))


@settings(max_examples=50, deadline=None)
@given(orbit_removed_hexagons())
def test_ciucus_factorization_holds_on_orbit_removed_hexagons(region):
    assume(tiler.enumerable(region, lambda: count_plain(region)))
    try:
        lower = lower_half_weighted(region)
    except ValueError:  # a half-removed axis position: no weighted half
        assume(False)
    tilings = count_via_enumeration(region)
    assert tilings == count_plain(upper_half(region)) * count_weighted2(lower)


@st.composite
def small_specs(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 2))
    holes = tuple(k for k in range(1, n // 2 + 1) if draw(st.booleans()))
    x = draw(st.integers(0, 2)) if n % 2 == 0 else 0
    return RegionSpec(n, m, holes, x)


@settings(max_examples=30, deadline=None)
@given(small_specs())
def test_engines_agree_on_random_small_regions(spec):
    region = build_region(spec)
    assert region.is_symmetric(region.reflect_h)
    assert region.is_symmetric(region.reflect_v)
    plain = count_plain(region)
    # the profile DP, not a Kasteleyn engine, is the determinant's oracle
    assert plain == _profile_dp(region, use_free=False, weighted=False)
    upper = upper_half(region)
    assert count_plain(upper) == _profile_dp(upper, use_free=False, weighted=False)
    if plain > 5000:
        return
    assert _three_enumerations(region) == (
        plain,
        count_plain(upper_half(region)),
        count_free(left_half_free(region)),
    )
    # rhombus specs have no closed form: enumeration checks both halves
    half = left_half_free(region)
    assert count_free(half) == count_via_enumeration(half)
    lower = lower_half_weighted(region)
    assert count_weighted2(lower) == count_via_enumeration(lower)


@st.composite
def symmetric_hole_sets(draw):
    """A spec's region (n <= 5, m <= 2, with and without x), or a hexagon
    less the orbits of one or two random cells under both reflections."""
    if draw(st.booleans()):
        return build_region(draw(small_specs()))
    return draw(orbit_removed_hexagons())


@settings(max_examples=40, deadline=None)
@given(symmetric_hole_sets())
def test_fixed_enumeration_matches_the_filter_on_random_symmetric_hole_sets(region):
    assume(count_plain(region) <= 5000)
    assert _three_enumerations(region) == symmetric_via_enumeration(region)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("n=10 m=3 k=2,4", 113864011680),
        ("n=12 m=3 k=2,5", 1975424264226990),
        ("n=16 m=3 k=2,5", 1493935972847216992962000),
        ("n=20 m=4 k=2,5,9", 105040316829409326791462180181759477120),
    ],
)
def test_free_and_weighted_halves_at_tracking_sizes(text, expected):
    # the tracking sizes; the closed-form Pfaffian and determinant give the
    # same value (the profile DP takes 20 s at n=16)
    spec = RegionSpec.parse(text)
    region = build_region(spec)
    assert count_free(left_half_free(region)) == expected == count_free_via_pfaffian(spec)
    assert count_weighted2(lower_half_weighted(region)) == expected == count_weighted2_via_det(spec)


def test_kasteleyn_halves_at_closed_form_scale():
    # M = M_h * W by the tiler alone, past any size the profile DP reaches
    spec = RegionSpec.parse("n=30 m=8 k=3,7")
    region = build_region(spec)
    free = count_free(left_half_free(region))
    assert free == count_free_via_pfaffian(spec)
    assert count_weighted2(lower_half_weighted(region)) == free
    assert count_plain(region) == count_plain(upper_half(region)) * free


def _kasteleyn_halves_match_dp(spec):
    region = build_region(spec)
    free, lower = left_half_free(region), lower_half_weighted(region)
    assert count_free(free) == _profile_dp(free, use_free=True, weighted=False), spec.text()
    assert count_weighted2(lower) == _profile_dp(lower, use_free=False, weighted=True), spec.text()


def test_kasteleyn_halves_match_dp_on_grids():
    # 81 hole-only specs (n <= 7, m <= 3, l <= 2) and 54 rhombus specs
    specs = iter_specs(range(1, 8), range(1, 4), range(0, 3))
    specs += iter_specs((2, 4, 6), (1, 2), (0, 1), (1, 2, 3))
    assert len(specs) == 135
    for spec in specs:
        _kasteleyn_halves_match_dp(spec)


@settings(max_examples=40, deadline=None)
@given(small_specs())
def test_kasteleyn_halves_match_dp_on_random_small_regions(spec):
    _kasteleyn_halves_match_dp(spec)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 2), st.data())
def test_kasteleyn_halves_match_dp_around_odd_holes(n, m, data):
    # a mirror pair of side-s axis triangles: odd s needs negated edges
    apex_row = data.draw(st.integers(0, n - 1).map(lambda r: r - r % 2))
    side = data.draw(st.integers(1, n - apex_row))
    region = punch_symmetric_triangle_pair(build_hexagon(n, m), apex_row, side)
    free = left_half_free(region)
    assert count_free(free) == _profile_dp(free, use_free=True, weighted=False)
    if side % 2 == 0 or apex_row + side == n:
        # lower_half_weighted needs each axis position whole or gone
        lower = lower_half_weighted(region)
        assert count_weighted2(lower) == _profile_dp(lower, use_free=False, weighted=True)


@pytest.mark.parametrize(
    "n, m, apex_row, side, expected",
    [
        (8, 2, 2, 3, 70132046880),
        (7, 2, 1, 1, 1850798092),
        (7, 2, 2, 1, 89894167000),
    ],
)
def test_odd_holes_need_the_defect_line(n, m, apex_row, side, expected):
    # each hole has an odd number of triangles; with every Kasteleyn weight
    # +1 the determinant reads 63911795376, 362601668 and 67677846808
    region = punch_symmetric_triangle_pair(build_hexagon(n, m), apex_row, side)
    assert count_plain(region) == expected == _profile_dp(region, use_free=False, weighted=False)


def test_kasteleyn_at_a_size_the_dp_finds_slow():
    region = build_region(RegionSpec.parse("n=10 m=3 k=2,4"))
    assert count_plain(region) == 29680201373126661120  # the profile DP's value


def test_kasteleyn_caps(monkeypatch):
    region = build_hexagon(6, 2)  # its Hadamard bound has 62 bits
    monkeypatch.setattr(intlinalg, "KASTELEYN_PRIMES", (2**61 - 1,))
    with pytest.raises(CapExceeded):
        count_plain(region)
    monkeypatch.undo()
    # rows of 69 cells: past the profile DP's width guard, not the engines'
    wide = build_hexagon(1, 17)
    assert count_plain(wide) == count_free(wide) == box_tilings(34, 1, 1)
    with pytest.raises(CapExceeded):
        _profile_dp(wide, use_free=False, weighted=False)


def test_free_count_refuses_a_pfaffian_past_its_bound(monkeypatch):
    half = left_half_free(build_region(RegionSpec(2, 1)))
    assert count_free(half) == 10
    # the largest symmetric residue, far past the bound of a 10-tiling half
    monkeypatch.setattr(tiler, "pfaffian_mod_sparse", lambda rows, prime: prime // 2)
    with pytest.raises(ArithmeticError, match="exceeds its bound"):
        count_free(half)


def test_free_count_refuses_layouts_outside_its_sign_argument():
    # a hole opening onto the cut through a down triangle leaves free ups
    # without a row neighbour; there the free block's signs are wrong
    region = punch_symmetric_triangle_pair(build_hexagon(2, 1), 1, 1)
    half = left_half_free(region)
    assert _profile_dp(half, use_free=True, weighted=False) == 4
    with pytest.raises(ValueError):
        count_free(half)
    # free marks above the last row, or on only some ups of it
    half = left_half_free(build_hexagon(2, 1))
    for free in ({(0, 0)}, {(1, 0)}):
        with pytest.raises(ValueError):
            count_free(half._replace(free=frozenset(free)))


# ---------------------------------------------------------------------------
# the engines' matrices against their tuple-based assembly


def _flipped_by_tuples(region):
    """The up triangles whose vertical edge the Kasteleyn signing negates:
    each row's ups walked left to right with the down below each, where a
    pair with one triangle missing starts a line and a pair with both
    present is negated when an odd number of lines start to its left."""
    flipped = set()
    for i in range(region.num_rows - 1):
        odd = False
        for p in range(region.row_len(i)):
            t = (i, p)
            if not region.is_up(t):
                continue
            here = t in region.triangles
            if here != (region.vertical_partner(t) in region.triangles):
                odd = not odd
            elif odd and here:
                flipped.add(t)
    return flipped


def _up_edges_by_tuples(region, weighted):
    flipped = _flipped_by_tuples(region)
    edges = {}
    for t in sorted(region.triangles):
        if region.is_up(t):
            i, p = t
            w = 2 if weighted and t in region.special else 1
            row = {d: w for d in ((i, p - 1), (i, p + 1)) if d in region.triangles}
            below = region.vertical_partner(t)
            if below in region.triangles:
                row[below] = -1 if t in flipped else 1
            edges[t] = row
    return edges


def _kasteleyn_by_tuples(region, weighted):
    """K, or None when the ups and downs differ in number."""
    edges = _up_edges_by_tuples(region, weighted)
    downs = [t for t in sorted(region.triangles) if not region.is_up(t)]
    if len(edges) != len(downs):
        return None
    column = {t: j for j, t in enumerate(downs)}
    return [{column[d]: w for d, w in row.items()} for row in edges.values()]


def _monomer_by_tuples(region):
    """The boundary-monomer matrix A of the tiler's module docstring: ups
    first, then downs, each in row-major order."""
    order = sorted(region.triangles, key=lambda t: (not region.is_up(t), t))
    index = {t: j for j, t in enumerate(order)}
    size = len(order) + len(order) % 2
    rows = [{} for _ in range(size)]
    for t, row in _up_edges_by_tuples(region, weighted=False).items():
        for d, w in row.items():
            rows[index[t]][index[d]] = w
            rows[index[d]][index[t]] = -w
    free = [index[t] for t in sorted(region.free)] + list(range(len(order), size))
    for r, s in combinations(range(len(free)), 2):
        rows[free[r]][free[s]] = (-1) ** (r + s)
        rows[free[s]][free[r]] = -((-1) ** (r + s))
    return rows


def _assembled(engine, region):
    """The matrix an engine hands to its exact kernel, None if none."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiler, "exact", lambda kernel, rows, bound: seen.append(rows) or 0)
        engine(region)
    return seen[0] if seen else None


def _assert_matrices_match_tuples(region):
    assert _assembled(count_plain, region) == _kasteleyn_by_tuples(region, weighted=False)
    if region.special:
        assert _assembled(count_weighted2, region) == _kasteleyn_by_tuples(region, weighted=True)
    if region.free:
        assert _assembled(count_free, region) == _monomer_by_tuples(region)


def test_matrices_match_tuple_assembly_on_the_default_grid():
    specs = iter_specs(**verify.DEFAULT_GRID)
    assert len(specs) == 38
    for spec in specs:
        region = build_region(spec)
        for part in (region, upper_half(region), lower_half_weighted(region), left_half_free(region)):
            _assert_matrices_match_tuples(part)


def test_matrices_match_tuple_assembly_on_triangle_pairs():
    lined = 0
    for n in range(1, 8):
        for m in (1, 2):
            for apex_row in range(n):
                for side in range(1, n - apex_row + 1):
                    try:
                        region = punch_symmetric_triangle_pair(build_hexagon(n, m), apex_row, side)
                    except ValueError:
                        continue  # the pair overlaps its own mirror image
                    _assert_matrices_match_tuples(region)
                    _assert_matrices_match_tuples(upper_half(region))
                    lined += bool(_flipped_by_tuples(region))
    assert lined == 108  # pairs whose holes negate an edge


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 2), st.data())
def test_matrices_match_tuple_assembly_around_random_odd_holes(n, m, data):
    # missing cells anywhere but the last row, which stays whole so that
    # its ups may all be free
    hexagon = build_hexagon(n, m)
    last = hexagon.num_rows - 1
    inner = sorted(t for t in hexagon.triangles if t[0] < last)
    holes = data.draw(st.sets(st.sampled_from(inner), min_size=1, max_size=10))
    region = hexagon._replace(triangles=hexagon.triangles - holes)
    ups = sorted(t for t in region.triangles if region.is_up(t))
    special = data.draw(st.sets(st.sampled_from(ups), min_size=1, max_size=4))
    free = frozenset(t for t in ups if t[0] == last)
    region = region._replace(special=frozenset(special), free=free)
    _assert_matrices_match_tuples(region)
    # the tuple assembly states the production signing again, so only the
    # counts show that it meets Kasteleyn's rule
    assert count_plain(region) == _profile_dp(region, use_free=False, weighted=False)
    assert count_weighted2(region) == _profile_dp(region, use_free=False, weighted=True)
    assert count_free(region) == _profile_dp(region, use_free=True, weighted=False)

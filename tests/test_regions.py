import pytest

from hexholes import intlinalg, regions
from hexholes.regions import (
    CapExceeded,
    Region,
    RegionSpec,
    axis_up_triangle_cells,
    build_hexagon,
    build_region,
    left_half_free,
    lower_half_weighted,
    punch_holes,
    punch_symmetric_triangle_pair,
    upper_half,
)
from hexholes.verify import iter_specs


def test_spec_validation():
    with pytest.raises(ValueError):
        RegionSpec(0, 1)
    with pytest.raises(ValueError):
        RegionSpec(4, 1, (0,))
    with pytest.raises(ValueError):
        RegionSpec(4, 1, (2, 1))
    with pytest.raises(ValueError):
        RegionSpec(4, 1, (3,))  # 2k > n
    with pytest.raises(ValueError):
        RegionSpec(3, 1, central_x=1)  # odd n
    RegionSpec(4, 2, (1, 2))
    RegionSpec(4, 1, (2,), central_x=3)  # hole touches the rhombus, no overlap


BAD_SPECS = [
    pytest.param((0, 1, (), 0), id="n=0"),
    pytest.param((4, 1, (2, 1), 0), id="decreasing holes"),
    pytest.param((5, 1, (), 1), id="x on odd n"),
]


def _spec_text(n, m, holes, x):
    return f"n={n} m={m} k={','.join(map(str, holes))} x={x}"


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda bad: RegionSpec(*bad), id="constructor"),
        pytest.param(lambda bad: RegionSpec.parse(_spec_text(*bad)), id="parse"),
        pytest.param(lambda bad: RegionSpec._make(bad), id="_make"),
        pytest.param(
            lambda bad: RegionSpec(6, 1)._replace(**dict(zip(RegionSpec._fields, bad))),
            id="_replace",
        ),
    ],
)
@pytest.mark.parametrize("bad", BAD_SPECS)
def test_every_way_of_building_a_spec_checks_it(build, bad):
    with pytest.raises(ValueError):
        build(bad)


def test_spec_text_round_trip():
    spec = RegionSpec(15, 5, (2, 5, 7))
    assert spec.text() == "n=15 m=5 k=2,5,7"
    assert RegionSpec.parse(spec.text()) == spec
    assert RegionSpec.parse("n=2 m=1 x=3") == RegionSpec(2, 1, (), 3)
    with pytest.raises(ValueError):
        RegionSpec.parse("n=2")
    with pytest.raises(ValueError):
        RegionSpec.parse("n=2 m=1 q=5")


def _up_count(region):
    return sum(1 for t in region.triangles if region.is_up(t))


@pytest.mark.parametrize(
    "n, m, count", [(1, 1, 10), (2, 1, 24), (15, 5, 1050), (6, 2, 168)]
)
def test_hexagon_triangle_count(n, m, count):
    region = build_hexagon(n, m)
    assert len(region.triangles) == 2 * n * n + 8 * m * n == count
    assert _up_count(region) * 2 == count


def test_oversized_frame_is_refused_before_its_cells(monkeypatch):
    # (n^2 + 4mn) log2(3)/2 bits against the largest modulus, 2^11213 - 1
    assert len(build_hexagon(116, 1).triangles) == 2 * 116 * 116 + 8 * 116
    built = []

    def recording_region(**fields):
        built.append(len(fields["triangles"]))
        return Region(**fields)

    monkeypatch.setattr(regions, "Region", recording_region)
    with pytest.raises(CapExceeded):
        build_hexagon(117, 1)
    with pytest.raises(CapExceeded):
        build_region(RegionSpec(3000, 1))
    with pytest.raises(CapExceeded):
        build_region(RegionSpec(2, 1, (), 115))  # the frame has side n + x
    assert built == []
    # the refusal follows the modulus list
    monkeypatch.setattr(intlinalg, "KASTELEYN_PRIMES", (2**61 - 1,))
    with pytest.raises(CapExceeded):
        build_hexagon(8, 1)
    assert built == []


def test_hexagon_symmetries_are_involutions():
    region = build_hexagon(3, 2)
    for t in region.triangles:
        assert region.reflect_h(region.reflect_h(t)) == t
        assert region.reflect_v(region.reflect_v(t)) == t
    assert region.is_symmetric(region.reflect_h) and region.is_symmetric(region.reflect_v)


def test_punch_holes_counts():
    region = punch_holes(build_hexagon(15, 5), (2, 5, 7))
    # 2l side-2 triangles, 4 unit cells each
    assert len(region.triangles) == 1050 - 24
    assert region.is_symmetric(region.reflect_h) and region.is_symmetric(region.reflect_v)
    assert len(region.axis_positions()) == 15 - 6

    small = punch_holes(build_hexagon(2, 1), (1,))
    assert len(small.triangles) == 16
    assert small.axis_positions() == []


def test_punch_holes_unchanged_for_empty_list():
    region = build_hexagon(3, 1)
    assert punch_holes(region, ()) == region


def test_punch_holes_rejects_out_of_frame():
    with pytest.raises(ValueError):
        punch_holes(build_hexagon(2, 1), (9,))
    # overlapping punches of the same cells
    region = punch_holes(build_hexagon(4, 1), (1,))
    with pytest.raises(ValueError):
        punch_holes(region, (1,))


def test_axis_position_count_is_n_minus_2l():
    for spec in iter_specs(range(1, 7), (1, 2), (0, 1, 2)):
        region = build_region(spec)
        assert len(region.axis_positions()) == spec.n - 2 * spec.l


def test_hole_orientation_balance():
    hexagon = build_hexagon(4, 1)
    cells = axis_up_triangle_cells(hexagon, 0, 2)
    assert len(cells) == 4
    ups = sum(1 for t in cells if hexagon.is_up(t))
    assert ups == 3  # one inverted cell per side-2 triangle
    region = punch_holes(hexagon, (1,))
    assert _up_count(region) * 2 == len(region.triangles)


def test_central_rhombus_counts():
    spec = RegionSpec(2, 1, (), 2)
    region = build_region(spec)
    assert len(region.triangles) == 2 * 16 + 8 * 4 - 8 == 56
    assert region.is_symmetric(region.reflect_h) and region.is_symmetric(region.reflect_v)

    # x = 0 is the plain punched hexagon
    assert build_region(RegionSpec(4, 1, (1,))) == punch_holes(build_hexagon(4, 1), (1,))

    # outer frame side is n + x
    big = build_region(RegionSpec(8, 5, (), 7))
    assert big.side == 15


def test_halves_partition_region():
    for spec in (RegionSpec(4, 1, (1,)), RegionSpec(15, 5, (2, 5, 7))):
        region = build_region(spec)
        top = upper_half(region)
        bottom = lower_half_weighted(region)
        assert top.triangles | bottom.triangles == region.triangles
        assert not top.triangles & bottom.triangles
        assert len(bottom.special) == spec.n - 2 * spec.l


def test_upper_half_requires_symmetry():
    region = build_hexagon(2, 1)
    lopsided = Region(
        side=region.side,
        m=region.m,
        triangles=frozenset(t for t in region.triangles if t != (0, 0)),
    )
    with pytest.raises(ValueError):
        upper_half(lopsided)
    with pytest.raises(ValueError):
        left_half_free(lopsided)


def test_a_half_removed_axis_position_is_a_value_error():
    # the up of axis position 1 and its reflect_v image, the down of
    # position 2: fixed by both reflections, each position keeps one half
    region = build_hexagon(2, 1)
    holed = region._replace(triangles=region.triangles - {(0, 2), (3, 2)})
    assert holed.is_symmetric(holed.reflect_h) and holed.is_symmetric(holed.reflect_v)
    with pytest.raises(ValueError, match="half-removed axis position 1"):
        lower_half_weighted(holed)


def test_left_half_free_edges():
    region = build_region(RegionSpec(15, 5, (2, 5, 7)))
    half = left_half_free(region)
    assert all(t[0] < region.side for t in half.triangles)
    cut_row = region.side - 1
    expected = {
        t
        for t in region.triangles
        if t[0] == cut_row and region.is_up(t)
    }
    assert half.free == expected
    # every free triangle's mirror partner exists in the other half
    for t in half.free:
        assert region.vertical_partner(t) in region.triangles


def test_vertical_partner_round_trip():
    region = build_hexagon(3, 2)
    for t in region.triangles:
        partner = region.vertical_partner(t)
        if partner is not None and partner in region.triangles:
            assert region.vertical_partner(partner) == t


def test_punch_symmetric_pair_rejects_self_overlap():
    with pytest.raises(ValueError):
        punch_symmetric_triangle_pair(build_hexagon(3, 1), 2, 2)

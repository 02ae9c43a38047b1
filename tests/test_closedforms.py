from itertools import permutations

import pytest

from hexholes.closedforms import (
    box_tilings,
    symmetric_box_tilings,
    transpose_complement_box_tilings,
)
from hexholes.regions import build_hexagon, left_half_free, upper_half
from hexholes.tiler import count_free, count_plain


def test_box_tilings_values():
    assert box_tilings(1, 1, 1) == 2
    assert box_tilings(3, 4, 0) == 1
    assert box_tilings(2, 2, 2) == 20
    assert box_tilings(2, 2, 2) == count_plain(build_hexagon(2, 1))


def test_box_tilings_symmetric_in_dimensions():
    for dims in [(1, 2, 3), (2, 2, 4), (1, 1, 5)]:
        values = {box_tilings(*perm) for perm in permutations(dims)}
        assert len(values) == 1


def test_box_tilings_rejects_negative():
    with pytest.raises(ValueError):
        box_tilings(-1, 1, 1)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_formulas_match_tiler(n, m):
    region = build_hexagon(n, m)
    assert box_tilings(2 * m, n, n) == count_plain(region)
    assert symmetric_box_tilings(n, 2 * m) == count_free(left_half_free(region))
    assert transpose_complement_box_tilings(m, n) == count_plain(upper_half(region))


def test_symmetric_box_small_values():
    # single column of height c: every stack is symmetric
    assert symmetric_box_tilings(1, 2) == 3
    assert symmetric_box_tilings(2, 2) == 10


def test_transpose_complement_small_values():
    assert transpose_complement_box_tilings(1, 1) == 1
    assert transpose_complement_box_tilings(1, 2) == 2
    assert transpose_complement_box_tilings(2, 2) == 3


def test_box_product_identity_formula_grid():
    for a in range(1, 4):
        for b in range(1, 4):
            assert box_tilings(2 * a, b, b) == (
                transpose_complement_box_tilings(a, b) * symmetric_box_tilings(b, 2 * a)
            )

"""The acceptance gate: every exact identity the package certifies, run at
its stated scale, one summary line per criterion.

All comparisons are exact integer equalities (zero tolerance).  The same
suites back `hexholes verify` / `hexholes selftest`.
"""

import random

from hexholes import verify
from hexholes.intlinalg import determinant, pfaffian_elimination
from hexholes.paths import count_free_via_pfaffian, count_weighted2_via_det, reflectable_gf
from hexholes.regions import RegionSpec

from oracles import from_rows, pfaffian_by_matchings, reflectable_gf_dp

GRID = verify.iter_specs(range(2, 7), (1, 2), (0, 1, 2))
# one run table for the criteria over GRID, so each GRID region is
# enumerated once however many criteria read it
CHAINS: dict = {}
RHOMBUS_GRID = verify.iter_specs((2, 4), (1, 2), (0, 1), x_values=(1, 2, 3))


def _report(num: int, title: str, records: list[dict]) -> None:
    bad = [rec for rec in records if not rec["pass"]]
    status = "PASS" if not bad else "FAIL"
    print(f"criterion {num} ({title}): {status} [{len(records)} checks]")
    assert not bad, bad[:3]


def test_01_factorization_grid():
    _report(1, "full = hsym * vsym on the grid", verify.check_factorization(GRID, CHAINS))


def test_02_half_region_chain():
    records = verify.check_halves(GRID, CHAINS) + verify.check_weighted_split(GRID, CHAINS)
    _report(2, "cut equivalences and weighted split", records)


def test_03_pfaffian_equals_determinant():
    records = verify.check_pfaffian_determinant(GRID, CHAINS)
    seed = RegionSpec(2, 1, (1,))
    assert count_free_via_pfaffian(seed) == 1
    assert count_weighted2_via_det(seed) == 1
    _report(3, "signed Pfaffian = determinant = tiler counts", records)


def test_04_structured_reduction_random_suite():
    _report(4, "structured skew reduction, 200 seeded trials", verify.check_reduction(200, seed=7))


def test_05_difference_transform_completion():
    records = [
        rec
        for rec in verify.check_reduction_chain(GRID)
        if rec["identity"] == "difference-transform-eq-lgv"
    ]
    _report(5, "difference transform lands on the LGV matrix", records)


def test_06_reflection_gf_and_pfaffian_square():
    checks = 0
    for c in range(7):
        for d in range(c):
            for a in range(c + 1):
                for b in range(a):
                    assert reflectable_gf((a, b), (c, d)) == reflectable_gf_dp(a, b, c, d)
                    checks += 1
    rng = random.Random(7)
    for order in (2, 4, 6, 8):
        for _ in range(25):
            rows = [[0] * order for _ in range(order)]
            for i in range(order):
                for j in range(i + 1, order):
                    v = rng.randint(-9, 9)
                    rows[i][j] = v
                    rows[j][i] = -v
            a = from_rows(rows)
            assert pfaffian_elimination(a) ** 2 == determinant(a)
            checks += 1
    print(f"criterion 6 (reflection gf = dp; Pf^2 = det): PASS [{checks} checks]")


def test_07_rhombus_hole_factorization():
    records = verify.check_rhombus_factorization(RHOMBUS_GRID)
    records += verify.check_axis_split([RegionSpec(2, 1, (), 1), RegionSpec(2, 1, (), 2)])
    # the count is a degree-8 polynomial in x for (4,1), so the window must
    # reach past x = 9 before the differences can vanish
    records += verify.check_polynomial([(2, 1, 6), (4, 1, 11)])
    _report(7, "central-rhombus factorization, axis split, polynomiality", records)


def test_08_box_product_closed_forms():
    _report(8, "box product formulas vs tiler", verify.check_box_product())


def test_09_oracle_coherence():
    records = verify.check_oracles(GRID, CHAINS)
    rng = random.Random(11)
    matched = 0
    for order in (2, 4, 6, 8):
        for _ in range(10):
            rows = [[0] * order for _ in range(order)]
            for i in range(order):
                for j in range(i + 1, order):
                    v = rng.randint(-9, 9)
                    rows[i][j] = v
                    rows[j][i] = -v
            a = from_rows(rows)
            assert pfaffian_by_matchings(a) == pfaffian_elimination(a)
            matched += 1
    _report(9, f"profile DP = enumeration; matching Pf = elimination Pf ({matched} matrices)", records)

import pytest

from hexholes import paths, reduction, tiler, verify
from hexholes.regions import RegionSpec, build_region, left_half_free


def test_iter_specs_is_lexicographic_and_valid():
    specs = verify.iter_specs((3, 2), (1,), (0, 1, 2))
    texts = [s.text() for s in specs]
    assert texts == ["n=2 m=1", "n=2 m=1 k=1", "n=3 m=1", "n=3 m=1 k=1"]
    # odd n never combined with a rhombus
    specs = verify.iter_specs((2, 3), (1,), (0,), x_values=(0, 1))
    assert all(s.n % 2 == 0 or s.central_x == 0 for s in specs)


def test_hole_lists():
    assert verify.hole_lists(6, 2) == [(1, 2), (1, 3), (2, 3)]
    assert verify.hole_lists(2, 2) == []
    assert verify.hole_lists(5, 1) == [(1,), (2,)]


def test_contiguity_suite():
    records = verify.check_contiguity()
    assert records and all(rec["pass"] for rec in records)


def test_polynomial_profile_reports_order():
    profile = verify.polynomial_profile(2, 1, 6)
    assert profile["vanish_order"] == 5
    assert profile["values"][0] == "20"


def test_run_suite_dispatch():
    records = verify.run_suite("factorization", grid={"n_values": (2,), "m_values": (1,)})
    assert {rec["spec"] for rec in records} == {"n=2 m=1", "n=2 m=1 k=1"}
    records = verify.run_suite("reduction", trials=5, seed=1)
    assert len(records) == 10 and all(rec["pass"] for rec in records)
    try:
        verify.run_suite("nope")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown suite accepted")


@pytest.mark.parametrize("suite, xs", [("axis-split", (1, 2)), ("rhombus-factorization", (1, 2, 3))])
def test_a_grid_without_x_wins_over_a_suites_own_bounds(suite, xs):
    # the suite's own bounds fill in only the x values the grid leaves out
    records = verify.run_suite(suite, grid={"n_values": (4,), "m_values": (1,), "l_values": (0,)})
    assert {rec["spec"] for rec in records} == {f"n=4 m=1 x={x}" for x in xs}


def test_record_serializes_big_integers_as_strings():
    rec = verify.record("spec", "identity", 10**40, 10**40, "a", "b")
    assert rec["lhs"] == str(10**40) and rec["pass"]


def test_axis_split_suite_comes_with_determinants():
    records = verify.check_axis_split([RegionSpec(2, 1, (), 1)])
    idents = [rec["identity"] for rec in records]
    assert idents == ["axis-split-squares", "axis-split-sum", "axis-split-determinants"]
    assert all(rec["pass"] for rec in records)


def _corrupt(builder, row, col):
    """Wrap a matrix builder so that entry (row, col), by position, is off by one."""

    def corrupted(*args):
        mat = builder(*args)
        mat.rows[row][col] += 1
        return mat

    return corrupted


def test_failed_entry_records_name_the_first_bad_entry(monkeypatch):
    spec = RegionSpec(2, 1, (1,))  # skew labels 0, 1, 1-, 1+; LGV labels 1, 1+
    good_skew = verify.check_skew_matrix([spec])[0]
    good_lgv = verify.check_lgv_matrix([spec])[0]
    assert good_skew["pass"] and good_skew["method_lhs"] == "closed form"
    assert good_lgv["pass"] and good_lgv["method_lhs"] == "closed form"

    monkeypatch.setattr(paths, "free_endpoint_pfaffian_matrix", _corrupt(paths.free_endpoint_pfaffian_matrix, 1, 2))
    bad = verify.check_skew_matrix([spec])[0]
    assert bad == {**good_skew, "lhs": "0", "pass": False, "method_lhs": "closed form, first bad entry (1, '1-')"}

    monkeypatch.setattr(paths, "lgv_matrix", _corrupt(paths.lgv_matrix, 1, 0))
    bad = verify.check_lgv_matrix([spec])[0]
    assert bad == {**good_lgv, "lhs": "0", "pass": False, "method_lhs": "closed form, first bad entry ('1+', 1)"}

    good_chain = verify.check_reduction_chain([spec])[1]
    assert good_chain["identity"] == "difference-transform-eq-lgv" and good_chain["pass"]
    monkeypatch.setattr(reduction, "difference_transform", _corrupt(reduction.difference_transform, 1, 0))
    bad = verify.check_reduction_chain([spec])[1]
    assert bad == {
        **good_chain,
        "lhs": "0",
        "pass": False,
        "method_lhs": "difference transform of reduced block, first bad entry ('1-', 1)",
    }


def test_failed_axis_split_record_names_the_first_bad_subset(monkeypatch):
    spec = RegionSpec(2, 1, (), 1)
    good = verify.check_axis_split([spec])[2]
    assert good == verify.record(spec.text(), "axis-split-determinants", 1, 1, "piece determinants", "tiler piece counts")
    table = tiler.split_by_axis(left_half_free(build_region(spec)))
    (first_bad, _), (second_bad, _) = table[2], table[4]
    bad_ranks = {first_bad, second_bad}
    real = paths.left_piece_matrix

    def off_by_one(spec, ranks):
        # entry (0, 0) has the nonzero cofactor C(3, 2) at both bad subsets
        mat = real(spec, ranks)
        mat.rows[0][0] += ranks in bad_ranks
        return mat

    monkeypatch.setattr(paths, "left_piece_matrix", off_by_one)
    bad = verify.check_axis_split([spec])[2]
    assert bad == {
        **good,
        "lhs": "0",
        "pass": False,
        "method_lhs": f"piece determinants, first bad subset {first_bad!r}",
    }


def test_failed_fold_record_names_the_first_bad_entry(monkeypatch):
    good = verify.check_reduction(trials=4, seed=1)
    assert [rec["identity"] for rec in good[:2]] == ["reduction-certificate", "fold-zero-blocks"]
    assert all(rec["pass"] for rec in good)
    real = reduction.fold_transform

    def corrupted(a):
        folded = real(a)
        folded.rows[folded.row_labels.index(0)][folded.col_labels.index(0)] += 1
        return folded

    monkeypatch.setattr(reduction, "fold_transform", corrupted)
    bad = verify.check_reduction(trials=4, seed=1)
    for before, after in zip(good, bad, strict=True):
        if before["identity"] == "fold-zero-blocks":
            assert before["method_lhs"] == "folded matrix"
            assert after == {
                **before,
                "lhs": "0",
                "pass": False,
                "method_lhs": "folded matrix, first bad entry (0, 0)",
            }
        else:
            assert after == before


def _count_calls(monkeypatch, module, *names):
    """Wrap each named function of module with a call counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_reduction_suites_reduce_each_matrix_once(monkeypatch):
    calls = _count_calls(monkeypatch, reduction, "check_hypotheses", "fold_transform")
    specs = [RegionSpec(6, 2, (1, 3)), RegionSpec(5, 3)]
    records = verify.check_reduction_chain(specs)
    assert len(records) == 4 and all(rec["pass"] for rec in records)
    assert calls == {"check_hypotheses": 2, "fold_transform": 2}

    calls.update(dict.fromkeys(calls, 0))
    records = verify.check_reduction(trials=5, seed=1)
    assert len(records) == 10 and all(rec["pass"] for rec in records)
    assert calls == {"check_hypotheses": 5, "fold_transform": 5}


def test_reduction_compares_the_two_reduced_blocks(monkeypatch):
    # a fold that breaks a (nonpositive, plus) entry makes the block read
    # out of it disagree with the block built from the structured data: the
    # certificate fails, and its record names the entry instead of raising
    spec = RegionSpec(2, 1, (1,))  # skew labels 0, 1, 1-, 1+; reduced rows 1, 1-, columns 1, 1+
    good = verify.check_reduction_chain([spec])
    assert good[0]["method_lhs"] == "pfaffian" and all(rec["pass"] for rec in good)
    real = reduction.fold_transform

    def corrupted(a):
        folded = real(a)
        folded.rows[folded.row_labels.index(0)][folded.col_labels.index("1+")] += 1
        return folded

    monkeypatch.setattr(reduction, "fold_transform", corrupted)
    cert = reduction.verify_pfaffian_reduction(paths.endline_skew_matrix(spec))
    assert cert.first_bad_reduced_entry == (1, "1+")
    assert cert.first_bad_fold_entry == (0, "1+")
    bad = verify.check_reduction_chain([spec])
    assert bad[0] == {
        **good[0],
        "lhs": "0",
        "rhs": "1",
        "pass": False,
        "method_lhs": "pfaffian, reduced blocks differ, first bad entry (1, '1+')",
    }
    # the difference transform reads the block built from the data
    assert bad[1] == good[1]


# the side-2 rhombus of n=2 m=1 is the hole pair k=2 of the hexagon n=4 m=1
RHOMBUS, TWIN = RegionSpec(2, 1, (), 2), RegionSpec(4, 1, (2,))


def test_on_a_rhombus_spec_the_closed_form_links_do_not_reach():
    chain = verify.Chain(RHOMBUS)
    assert chain.pfaffian is None and chain.determinant is None


def test_a_rhombus_and_its_hole_twin_share_the_region_links(monkeypatch):
    calls = _count_calls(monkeypatch, tiler, "count_plain", "count_via_enumeration", "count_fixed_via_enumeration")
    lgv = _count_calls(monkeypatch, paths, "count_plain_via_lgv")
    rhombus, twin = verify._chains([RHOMBUS, TWIN], {})
    assert rhombus.region == twin.region
    for link in ("plain", "reach", "enumerated", "hsym_enumerated", "vsym_enumerated"):
        assert getattr(rhombus, link) == getattr(twin, link) is not None, link
    assert calls == {"count_plain": 1, "count_via_enumeration": 1, "count_fixed_via_enumeration": 2}
    # the reach read the rhombus's LGV; the twin's is a link of the twin's spec
    assert lgv == {"count_plain_via_lgv": 1}
    assert rhombus.path_plain == twin.path_plain == rhombus.plain
    assert lgv == {"count_plain_via_lgv": 2}


@pytest.mark.parametrize("specs", [(RHOMBUS, TWIN), (TWIN, RHOMBUS)], ids=["rhombus-first", "twin-first"])
def test_the_twin_reads_its_own_closed_forms_whichever_spec_comes_first(specs):
    read = {c.spec: (c.pfaffian, c.determinant) for c in verify._chains(specs, {})}
    assert read[RHOMBUS] == (None, None)
    assert read[TWIN] == (paths.count_free_via_pfaffian(TWIN), paths.count_weighted2_via_det(TWIN))
    assert all(isinstance(value, int) for value in read[TWIN])

import collections
import csv
import io
import json
import os
import subprocess
import sys
import time
from functools import cached_property

import pytest

import hexholes
from hexholes import paths, tiler, verify
from hexholes.cli import main, parse_grid
from hexholes.regions import RegionSpec, build_region
from hexholes.tiler import count_plain


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_free_left(capsys):
    code, out = run(capsys, "count", "n=2", "m=1", "k=1", "--class", "free-left")
    rec = json.loads(out)
    assert code == 0
    assert rec["value"] == "1"
    assert rec["crosscheck"] == "ok"


def test_count_plain_hexagon(capsys):
    code, out = run(capsys, "count", "n=1", "m=1")
    rec = json.loads(out)
    assert code == 0
    assert rec["value"] == "3"
    assert rec["method"] == "kasteleyn-det"


def test_count_weighted_lower(capsys):
    code, out = run(capsys, "count", "n=2", "m=1", "k=1", "--class", "weighted-lower")
    rec = json.loads(out)
    assert code == 0 and rec["value"] == "1" and rec["crosscheck"] == "ok"


def test_count_symmetry_classes(capsys):
    code, out = run(capsys, "count", "n=2", "m=1", "--class", "hsym")
    assert code == 0 and json.loads(out)["value"] == "2"
    code, out = run(capsys, "count", "n=2", "m=1", "--class", "vsym")
    assert code == 0 and json.loads(out)["value"] == "10"


def test_verify_json_schema_and_exit_code(capsys):
    code, out = run(capsys, "verify", "factorization", "--grid", "n<=3", "m<=1")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines
    for rec in lines:
        assert set(rec) == {"spec", "identity", "lhs", "rhs", "method_lhs", "method_rhs", "pass"}
        assert rec["pass"] is True
        int(rec["lhs"])  # decimal strings


def test_verify_output_is_deterministic(capsys):
    _, first = run(capsys, "verify", "pfaffian-determinant", "--grid", "n<=3")
    _, second = run(capsys, "verify", "pfaffian-determinant", "--grid", "n<=3")
    assert first == second


def test_verify_reduction_seeded(capsys):
    code, out = run(capsys, "verify", "reduction", "--trials", "20", "--seed", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 40  # certificate + fold record per trial


def test_polycheck(capsys):
    code, out = run(capsys, "polycheck", "n=2", "m=1", "--xmax", "6")
    rec = json.loads(out)
    assert code == 0
    assert rec["pass"] is True
    assert rec["values"].startswith("20,85,260")


def test_grid_parsing():
    assert parse_grid("n<=4 m<=2 l<=1") == {
        "n_values": tuple(range(1, 5)),
        "m_values": (1, 2),
        "l_values": (0, 1),
    }
    assert parse_grid("n in {2,4} x in {1,3}") == {
        "n_values": (2, 4),
        "x_values": (1, 3),
    }
    assert parse_grid("n=3") == {"n_values": (3,)}
    with pytest.raises(ValueError):
        parse_grid("q<=4")
    with pytest.raises(ValueError):
        parse_grid("nonsense !!")


def test_csv_format(capsys):
    code, out = run(capsys, "count", "n=2", "m=1", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:2] == ["spec", "class"]
    assert "20" in row


@pytest.mark.parametrize("grid", ["n=2 n=4", "n<=3 n in {5}", "m=1 n=2 m<=2"])
def test_repeated_grid_variable_exits_2(capsys, grid):
    with pytest.raises(ValueError, match="given twice"):
        parse_grid(grid)
    code = main(["verify", "factorization", "--grid", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: grid variable") and captured.err.count("\n") == 1
    assert json.loads(captured.out) == {"error": captured.err[len("error: ") : -1], "pass": False}


def test_verify_all_csv_is_one_table(capsys):
    # one header, then every suite's rows in the order the JSON records come
    grid = ["--grid", "n<=3 m=1 l<=1", "--trials", "3"]
    code, out = run(capsys, "verify", "all", *grid, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 144
    assert [line for line in lines if line.startswith("spec,identity,")] == [lines[0]]
    code, out = run(capsys, "verify", "all", *grid)
    records = [json.loads(line) for line in out.splitlines()]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    assert [(row["spec"], row["identity"], row["lhs"]) for row in rows] == [
        (rec["spec"], rec["identity"], rec["lhs"]) for rec in records
    ]


def test_bad_spec_exits_nonzero(capsys):
    code = main(["count", "n=2"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "n=2", "m=1", "k=1,"], "k=1,: '' is not an integer"),
        (["count", "n=a", "m=1"], "n=a: 'a' is not an integer"),
        (["count", "n=2", "m=1", "x=q"], "x=q: 'q' is not an integer"),
        (["verify", "reduction-chain", "--grid", "n<=a"], "n<=a: 'a' is not an integer"),
        (["verify", "reduction-chain", "--grid", "n in {2,b}"], "n in {2,b}: 'b' is not an integer"),
        (["verify", "reduction-chain", "--grid", "m=1 n=c"], "n=c: 'c' is not an integer"),
    ],
)
def test_a_value_that_is_not_an_integer_names_its_key(capsys, argv, message):
    code = main([*argv, "--format", "text"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n" and captured.out == ""


METHODS = {
    "full": "kasteleyn-det",
    "hsym": "half-region kasteleyn-det",
    "vsym": "half-region kasteleyn-pfaffian",
    "free-left": "kasteleyn-pfaffian",
    "weighted-lower": "weighted kasteleyn-det",
}


@pytest.mark.parametrize("cls", ["full", "hsym", "vsym", "free-left", "weighted-lower"])
def test_count_over_triangle_cap_uses_dp(capsys, cls):
    # one tiling, but 240 triangles: over the enumeration cap of 200
    code, out = run(capsys, "count", "n=10", "m=1", "k=1,2,3,4,5", "--class", cls)
    rec = json.loads(out)
    assert code == 0 and rec["pass"] is True
    assert rec["value"] == "1"
    assert rec["method"] == METHODS[cls]
    # the path routes check the whole region and the upper half, the closed
    # forms the free and weighted halves
    assert rec["crosscheck"] == "ok"


@pytest.mark.parametrize(
    "spec, cls, module, engine",
    [
        ("n=2 m=1", "full", tiler, "count_plain"),  # against the enumeration of every tiling
        ("n=2 m=1", "hsym", tiler, "count_plain"),
        ("n=2 m=1", "vsym", tiler, "count_free"),
        # past the triangle cap: the path routes, and the Pfaffian
        ("n=10 m=1 k=1,2,3,4,5", "full", paths, "count_plain_via_lgv"),
        ("n=10 m=1 k=1,2,3,4,5", "hsym", paths, "count_upper_via_lgv"),
        ("n=10 m=1 k=1,2,3,4,5", "vsym", paths, "count_free_via_pfaffian"),
        ("n=2 m=1 k=1", "free-left", paths, "count_free_via_pfaffian"),
        ("n=2 m=1 k=1", "weighted-lower", paths, "count_weighted2_via_det"),
        # a rhombus: no closed form, so the enumeration of the half
        ("n=2 m=1 x=1", "free-left", tiler, "count_via_enumeration"),
        ("n=2 m=1 x=1", "weighted-lower", tiler, "count_via_enumeration"),
        ("n=4 m=2 x=1", "vsym", tiler, "count_via_enumeration"),  # past the region's enumeration reach
        ("n=4 m=2 x=1", "free-left", tiler, "count_via_enumeration"),
        ("n=4 m=2 x=1", "weighted-lower", tiler, "count_via_enumeration"),
        # the path routes reach a rhombus too
        ("n=4 m=2 x=2", "full", paths, "count_plain_via_lgv"),
        ("n=4 m=2 x=2", "hsym", paths, "count_upper_via_lgv"),
    ],
)
def test_each_class_fails_its_crosscheck_when_a_route_is_off(capsys, monkeypatch, spec, cls, module, engine):
    real = getattr(module, engine)
    monkeypatch.setattr(module, engine, lambda *args: real(*args) + 1)
    code, out = run(capsys, "count", *spec.split(), "--class", cls)
    rec = json.loads(out)
    assert code == 1 and rec["crosscheck"] == "MISMATCH" and rec["pass"] is False


def test_hole_only_halves_are_not_enumerated(capsys, monkeypatch):
    # the enumeration of a half is the last route, after the closed forms
    monkeypatch.setattr(tiler, "count_via_enumeration", lambda region: pytest.fail("enumerated a half"))
    for cls in ("vsym", "free-left", "weighted-lower"):
        code, out = run(capsys, "count", "n=4", "m=2", "k=1", "--class", cls)
        assert code == 0 and json.loads(out)["crosscheck"] == "ok"


def test_within_enumeration_reach_the_symmetry_classes_are_checked_by_definition(capsys, monkeypatch):
    # the mirror-constrained enumeration is the first route; the path routes
    # and the closed forms are not asked
    monkeypatch.setattr(paths, "count_upper_via_lgv", lambda spec: pytest.fail("asked the upper path route"))
    monkeypatch.setattr(paths, "count_weighted2_via_det", lambda spec: pytest.fail("asked the determinant"))
    monkeypatch.setattr(paths, "count_free_via_pfaffian", lambda spec: pytest.fail("asked the Pfaffian"))
    for cls in ("hsym", "vsym"):
        code, out = run(capsys, "count", "n=2", "m=1", "k=1", "--class", cls)
        assert code == 0 and json.loads(out)["crosscheck"] == "ok"


@pytest.mark.parametrize(
    "spec, cls, value, crosscheck, counts_whole_region",
    [
        ("n=8 m=3 k=2,4", "hsym", "1299080", "ok", False),
        ("n=8 m=3 k=2,4", "vsym", "41917512", "ok", False),
        ("n=6 m=3 x=2", "hsym", "24159720", "ok", False),
        ("n=7 m=2 k=1,2", "hsym", "55", "ok", False),
        ("n=7 m=2 k=1,2", "vsym", "4719", "ok", False),
    ],
    ids=["hsym-False", "vsym-False", "hsym-rhombus-False", "hsym-inside-cap-False", "vsym-inside-cap-False"],
)
def test_vsym_over_triangle_cap_skips_the_plain_count(
    capsys, monkeypatch, spec, cls, value, crosscheck, counts_whole_region
):
    # 304 and 312 triangles: past the triangle cap the enumeration gate is
    # shut without a plain count, and the path route checks hsym, rhombus
    # or not, without one.  194 triangles (n=7), inside the cap: the gate
    # reads M = 259545 from the whole region's LGV and shuts, past
    # ENUM_LIMIT, still without one
    sizes = []

    def recording_count_plain(region):
        sizes.append(len(region.triangles))
        return count_plain(region)

    monkeypatch.setattr(tiler, "count_plain", recording_count_plain)
    code, out = run(capsys, "count", *spec.split(), "--class", cls)
    rec = json.loads(out)
    assert code == 0 and rec["value"] == value and rec["crosscheck"] == crosscheck
    assert (len(build_region(RegionSpec.parse(spec)).triangles) in sizes) == counts_whole_region


@pytest.mark.parametrize("cls", ["full", "hsym", "vsym"])
def test_count_computes_the_whole_region_lgv_once(capsys, monkeypatch, cls):
    # 194 triangles, M = 259545: inside the triangle cap the reach reads M
    # from the whole region's LGV and shuts, and `full`'s check reads that
    # same value
    specs = []
    real = paths.count_plain_via_lgv
    monkeypatch.setattr(paths, "count_plain_via_lgv", lambda spec: specs.append(spec) or real(spec))
    code, out = run(capsys, "count", "n=7", "m=2", "k=1,2", "--class", cls)
    assert code == 0 and json.loads(out)["crosscheck"] == "ok"
    assert specs == [RegionSpec(7, 2, (1, 2))]


# spec -> the values and cross-check verdicts of its classes, in the order
# of METHODS; between them the specs reach every route: the enumerations
# of the region, the path routes, the closed forms, the enumeration of a
# half, and none
PINNED_COUNTS = {
    "n=2 m=1": ("20 2 10 10 10", "ok ok ok ok ok"),
    "n=2 m=1 k=1": ("1 1 1 1 1", "ok ok ok ok ok"),
    "n=10 m=1 k=1,2,3,4,5": ("1 1 1 1 1", "ok ok ok ok ok"),
    "n=2 m=1 x=1": ("85 5 17 17 17", "ok ok ok ok ok"),
    "n=4 m=2 x=1": ("7017516 594 11814 11814 11814", "ok ok ok ok ok"),
    "n=4 m=2 x=2": ("127760633 3157 40469 40469 40469", "ok ok ok ok ok"),
    "n=8 m=3 k=2,4": ("54454201488960 1299080 41917512 41917512 41917512", "ok ok ok ok ok"),
    "n=6 m=3 x=2": (
        "43197612797052480 24159720 1788001384 1788001384 1788001384",
        "ok ok skipped skipped skipped",
    ),
    "n=12 m=3 k=2,5": (
        "3400921312243440409496489220 1721615641678 1975424264226990 1975424264226990 1975424264226990",
        "ok ok ok ok ok",
    ),
}


@pytest.mark.parametrize("spec", PINNED_COUNTS)
def test_count_prints_the_pinned_record_of_every_class(capsys, spec):
    values, crosschecks = (column.split() for column in PINNED_COUNTS[spec])
    for (cls, method), value, crosscheck in zip(METHODS.items(), values, crosschecks, strict=True):
        rec = {"class": cls, "crosscheck": crosscheck, "method": method, "pass": True, "spec": spec, "value": value}
        assert run(capsys, "count", *spec.split(), "--class", cls) == (0, json.dumps(rec, sort_keys=True) + "\n")


def test_every_link_a_count_class_names_is_a_chain_link():
    # so a mistyped link fails here, not only on the specs its route reaches
    for cls, (link, _, checks) in verify.COUNT_CLASSES.items():
        for name in (link, *checks):
            assert isinstance(getattr(verify.Chain, name, None), (property, cached_property)), (cls, name)


def test_verify_over_triangle_cap(capsys):
    code, out = run(capsys, "verify", "factorization", "--grid", "n=10", "m=1", "l=5")
    assert code == 0
    assert json.loads(out)["lhs"] == "1"


def test_exceeded_cap_exits_2(capsys):
    # a frame past the largest modulus is refused before its cells exist
    started = time.perf_counter()
    code = main(["count", "n=3000", "m=1"])
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # the default format is json, so stdout carries the same error as one record
    message = captured.err[len("error: ") : -1]
    assert captured.out == json.dumps({"error": message, "pass": False}) + "\n"


def test_a_pfaffian_past_the_largest_modulus_exits_2(capsys):
    # the closed-form skew matrix at n=400 m=15 has a Pfaffian bound of
    # 12,024 bits, so no prime of KASTELEYN_PRIMES recovers its value
    code = main(["verify", "reduction-chain", "--grid", "n=400 m=15 l=0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: the bound of 12024 bits outgrows the largest modulus (2^11213-1)\n"


def test_json_error_is_one_record(capsys):
    code = main(["count", "n=3", "m=1", "k=9", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: hole index 9 exceeds n/2 = 3/2\n"
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out) == {"error": "hole index 9 exceeds n/2 = 3/2", "pass": False}
    code = main(["count", "n=3", "m=1", "k=9", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.startswith("error: hole index 9")


def test_polycheck_rejects_holes(capsys):
    code = main(["polycheck", "n=2", "m=1", "k=1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: polycheck takes a plain hexagon spec")


def test_environment_sets_no_cap(capsys, monkeypatch):
    # the caps are module constants; no variable reaches the records
    for var in ("HEXHOLES_ENUM_CAP", "HEXHOLES_TRIANGLE_CAP", "HEXHOLES_TRIALS"):
        monkeypatch.delenv(var, raising=False)
    commands = (["count", "n=4", "m=1"], ["verify", "reduction"])
    plain = [run(capsys, *argv) for argv in commands]
    monkeypatch.setenv("HEXHOLES_ENUM_CAP", "8")
    monkeypatch.setenv("HEXHOLES_TRIANGLE_CAP", "5")
    monkeypatch.setenv("HEXHOLES_TRIALS", "1")
    assert [run(capsys, *argv) for argv in commands] == plain
    assert plain[0][0] == 0 and json.loads(plain[0][1])["crosscheck"] == "ok"
    assert plain[1][0] == 0 and plain[1][1].count("\n") > 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "factorization", "--grid", "n<=0"],
        ["verify", "factorization", "--grid", "n=2 l=3"],
        ["verify", "reduction", "--trials", "-3"],
    ],
)
def test_verify_that_checks_nothing_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: verify {argv[1]} checked nothing")
    assert captured.err.count("\n") == 1
    assert json.loads(captured.out) == {"error": captured.err[len("error: ") : -1], "pass": False}


def test_axis_split_takes_every_spec_of_a_grid(capsys):
    # odd n and holes get their axis split, and the later suites of `verify all` still run
    code, out = run(capsys, "verify", "all", "--grid", "n<=4", "m<=2", "l<=2", "x<=2", "--trials", "3")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and all(rec["pass"] for rec in records)
    split_specs = {rec["spec"] for rec in records if rec["identity"].startswith("axis-split")}
    assert split_specs == {spec.text() for spec in verify.iter_specs(range(1, 5), (1, 2), (0, 1, 2), (0, 1, 2))}
    assert records[-1]["identity"] == "polynomial-in-x"
    code, out = run(capsys, "verify", "axis-split", "--grid", "n=3 m=1 x=0")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(records) == 3 and all(rec["pass"] for rec in records)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "n=2", "m=1", "--trials", "5"],
        ["count", "n=2", "m=1", "--seed", "9"],
        ["polycheck", "n=2", "m=1", "--trials", "5"],
        ["polycheck", "n=2", "m=1", "--seed", "9"],
        # selftest runs the defaults
        ["selftest", "--trials", "-3"],
        ["selftest", "--trials", "0"],
        ["selftest", "--trials", "5"],
        ["selftest", "--seed", "9"],
    ],
)
def test_count_and_polycheck_take_no_seed_or_trials(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--trials", "0"],
        # refused before any grid instance runs
        ["verify", "all", "--grid", "n<=2", "m=1", "--trials", "0"],
        ["verify", "all", "--trials", "-3"],
    ],
)
def test_trials_below_one_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: --trials must be at least 1, got {argv[-1]}\n"
    assert json.loads(captured.out) == {"error": captured.err[len("error: ") : -1], "pass": False}


def test_polycheck_rejects_negative_xmax(capsys):
    code = main(["polycheck", "n=2", "m=1", "--xmax", "-1", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == "error: the window x = 0..-1 is empty\n"


def test_selftest_times_its_suites_with_a_monotonic_clock(capsys, monkeypatch):
    # the wall clock can jump; a suite's time must not come from it
    monkeypatch.setattr(verify, "SUITES", {"box-product": verify.SUITES["box-product"]})
    monkeypatch.setattr(time, "time", lambda: pytest.fail("selftest read the wall clock"))
    code, out = run(capsys, "selftest", "--format", "text")
    assert code == 0
    assert out.splitlines()[0].split()[:2] == ["box-product", "PASS"]
    assert out.splitlines()[-1] == "selftest: PASS"


def test_selftest_prints_one_record_per_suite(capsys, monkeypatch):
    suites = ("box-product", "contiguity")
    monkeypatch.setattr(verify, "SUITES", {name: verify.SUITES[name] for name in suites})
    code, out = run(capsys, "selftest")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [rec["suite"] for rec in records] == list(suites)
    for rec in records:
        assert set(rec) == {"suite", "checks", "failures", "seconds", "pass"}
        assert rec["checks"] > 0 and rec["failures"] == 0 and rec["pass"] is True
    code, out = run(capsys, "selftest", "--format", "csv")
    assert code == 0
    assert [row["suite"] for row in csv.DictReader(io.StringIO(out))] == list(suites)
    # a failing suite still exits 1
    monkeypatch.setattr(verify, "SUITES", {"bad": lambda grid, trials, seed, chains: [{"pass": False}]})
    code, out = run(capsys, "selftest")
    rec = json.loads(out)
    assert code == 1
    assert (rec["suite"], rec["checks"], rec["failures"], rec["pass"]) == ("bad", 1, 1, False)


def test_a_closed_pipe_ends_quietly_with_status_141():
    # enough records to fill the pipe, so the writer meets the closed end
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hexholes.__file__))}
    argv = [sys.executable, "-m", "hexholes.cli", "verify", "reduction", "--trials", "1000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["pass"] is True
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_start_up_loads_no_source_introspection():
    # dataclasses pulls in inspect, and inspect pulls in ast, dis and
    # tokenize: about 10 ms of every command's start-up; fractions pulls in
    # decimal, and the exact routes are integer-only
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hexholes.__file__))}
    code = f"import sys, hexholes.cli, hexholes.verify; print(*[m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_parser_built_under_patched_suites_is_not_kept(capsys, monkeypatch):
    # verify's choices are read from verify.SUITES when the parser is built
    with monkeypatch.context() as patched:
        patched.setattr(verify, "SUITES", {"stub": lambda grid, trials, seed, chains: [{"pass": True}]})
        code, out = run(capsys, "selftest")
        assert code == 0 and json.loads(out)["suite"] == "stub"
    code, out = run(capsys, "verify", "box-product")
    assert code == 0 and out


def test_repeated_calls_print_what_a_fresh_process_prints(capsys, monkeypatch):
    # argparse wraps its usage at the terminal's width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hexholes.__file__))}
    argvs = (
        ["count", "n=2", "m=1", "--class", "vsym"],
        ["verify", "no-such-suite"],  # an argparse error: usage, the choices and exit 2
        ["count", "n=2"],  # a bad spec: exit 2 through main's own handler
        ["polycheck", "n=2", "m=1", "--format", "text"],
        ["count", "n=2", "m=1", "--class", "vsym"],
    )
    for argv in argvs:
        fresh = subprocess.run(
            [sys.executable, "-m", "hexholes.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _count_enumerations(monkeypatch) -> collections.Counter:
    """Count the calls of both enumerators: `enumerate_tilings` under
    (region, None), `count_fixed_via_enumeration` under (region, the
    reflection's name)."""
    calls: collections.Counter = collections.Counter()
    every, fixed = tiler.enumerate_tilings, tiler.count_fixed_via_enumeration

    def counted_every(region):
        calls[region, None] += 1
        return every(region)

    def counted_fixed(region, ref):
        calls[region, ref.__name__] += 1
        return fixed(region, ref)

    monkeypatch.setattr(tiler, "enumerate_tilings", counted_every)
    monkeypatch.setattr(tiler, "count_fixed_via_enumeration", counted_fixed)
    return calls


def _all_pass(code: int, out: str) -> bool:
    return code == 0 and all(json.loads(line)["pass"] for line in out.splitlines())


@pytest.mark.parametrize(
    "argv",
    [["selftest"], ["verify", "all", "--grid", "n in {2,4}", "m=1", "x<=2", "--trials", "3"]],
    ids=["selftest", "verify-all"],
)
def test_one_run_enumerates_no_region_twice(capsys, monkeypatch, argv):
    # the suites of one command share one run table, so no two suites, and
    # no two specs of one region (a side-2 rhombus is a hole pair), run an
    # enumerator on a region, or on a region and a reflection, twice
    calls = _count_enumerations(monkeypatch)
    assert _all_pass(*run(capsys, *argv))
    assert calls and max(calls.values()) == 1
    if argv == ["selftest"]:
        # the oracles suite's 25 regions and their halves; the rhombus
        # regions are enumerated by reflection only
        assert sum(n for (_, ref), n in calls.items() if ref is None) == 100


@pytest.mark.parametrize("suite", ["factorization", "halves"])
def test_the_factorization_suites_enumerate_only_fixed_tilings(capsys, monkeypatch, suite):
    # the 25 regions of the default grid within the enumeration reach, each
    # by both reflections, and never every tiling
    calls = _count_enumerations(monkeypatch)
    assert _all_pass(*run(capsys, "verify", suite))
    assert sorted(collections.Counter(ref for _, ref in calls).items()) == [("reflect_h", 25), ("reflect_v", 25)]


def test_no_run_table_outlives_its_command(capsys, monkeypatch):
    argv = ["verify", "factorization", "--grid", "n=2 m=1 l=0"]
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["lhs"] == "20"
    real = tiler.count_plain
    monkeypatch.setattr(tiler, "count_plain", lambda region: real(region) + 1)
    code, out = run(capsys, *argv)
    assert code == 1 and json.loads(out)["lhs"] == "21"

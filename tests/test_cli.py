"""Command-line interface: subcommands, exit codes, artifact outputs."""
import ast
import json
import os
import subprocess
import sys

import pytest

import walklab
from walklab import dp, engine
from walklab.cli import main
from walklab.laws import load_law

L1 = {"name": "l1",
      "pairs": [[-2, "1/6"], [-1, "1/6"], [0, "1/6"], [1, "1/2"]]}
BAD = {"name": "drift", "pairs": [[-1, "1/4"], [1, "3/4"]]}
SPAN3 = {"name": "span3", "pairs": [[-1, "2/3"], [2, "1/3"]]}


@pytest.fixture()
def law_file(tmp_path):
    p = tmp_path / "l1.json"
    p.write_text(json.dumps(L1))
    return str(p)


@pytest.fixture()
def bad_law_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(BAD))
    return str(p)


class TestValidate:
    def test_valid_law(self, law_file, capsys):
        assert main(["validate", "--law", law_file]) == 0
        out = capsys.readouterr().out
        assert "valid" in out and "sigma2" in out

    def test_invalid_law(self, bad_law_file, capsys):
        assert main(["validate", "--law", bad_law_file]) == 1

    def test_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["validate"])
        assert e.value.code == 2


@pytest.mark.parametrize("text", [
    '{"name": "l1", "pairs": [[-1, "1/2"], [1, "1/2"]',     # JSON syntax
    '{"name": "l1"}',                                       # no "pairs"
    '{"pairs": [[-1, "abc"], [1, "1/2"]]}',                 # weight "abc"
    '{"pairs": [[-1, "1/0"], [1, "1/2"]]}',                 # weight "1/0"
    '{"pairs": [[-1.5, "1/2"], [1, "1/2"]]}',               # increment 1.5
    '{"pairs": [[-1, "1/2"], [true, "1/2"]]}',              # increment true
    '{"name": 5, "pairs": [[-1, "1/2"], [1, "1/2"]]}',      # name 5
    '{"pairs": [[-1, Infinity], [1, "1/2"]]}',              # weight Infinity
    '{"pairs": [[-1, 1e400], [1, "1/2"]]}',                 # weight 1e400
], ids=["syntax", "no-pairs", "weight-abc", "weight-1/0", "increment-1.5",
        "increment-true", "name-5", "weight-Infinity", "weight-1e400"])
def test_malformed_law_file_is_a_law_error(text, tmp_path, capsys):
    p = tmp_path / "law.json"
    p.write_text(text)
    assert main(["validate", "--law", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LawError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestCompute:
    @pytest.mark.parametrize("mode", ["free", "point", "halfline",
                                      "partial"])
    def test_point_slice(self, mode, law_file, tmp_path, capsys):
        out = tmp_path / "slice.csv"
        assert main(["compute", "--law", law_file, "--mode", mode, "--x", "3",
                     "--n", "32", "--alpha", "0.3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,x,n,y,value"
        law = load_law(law_file)
        if mode == "free":
            res = engine.evolve_free(law, 3, 32)
        elif mode == "point":
            res = engine.absorbed_at_origin(law, 3, 32)
        elif mode == "halfline":
            res = engine.absorbed_on_halfline(law, 3, 32)
        else:
            res = engine.partial_absorption(law, 0.3, 3, 32)
        # one row per site of the engine's window, values round-tripped
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(res.weights) > 0
        assert all(r[:3] == [mode, "3", "32"] for r in rows)
        assert [int(r[3]) for r in rows] == res.sites().tolist()
        assert [float(r[4]) for r in rows] == res.weights.tolist()

    def test_deterministic(self, law_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (a, b):
            main(["compute", "--law", law_file, "--mode", "halfline",
                  "--x", "2", "--n", "64", "--out", str(f)])
        assert a.read_text() == b.read_text()


class TestKernels:
    def test_emits_tables(self, law_file, tmp_path, capsys):
        d = tmp_path / "k"
        assert main(["kernels", "--law", law_file,
                     "--out-dir", str(d)]) == 0
        names = {p.name for p in d.iterdir()}
        assert {"constants.txt", "potential.csv", "harmonic.csv",
                "entrance.csv"} <= names
        out = capsys.readouterr().out
        assert "C_plus" in out


class TestVerify:
    def test_passing_grid(self, law_file, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(["verify", "--law", law_file, "--theorem", "C11",
                   "--n", "256,1024", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "PASS" in capsys.readouterr().out

    def test_failing_tolerance(self, law_file, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(["verify", "--law", law_file, "--theorem", "T11i",
                   "--n", "256", "--tol", "0.001", "--out", str(out)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_rows_fail(self, tmp_path, capsys):
        # span3 has period 3: every default T11i cell is unreachable
        law = tmp_path / "span3.json"
        law.write_text(json.dumps(SPAN3))
        rc = main(["verify", "--law", str(law), "--theorem", "T11i",
                   "--out", str(tmp_path / "cmp.csv")])
        assert rc == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("FAIL: no comparable cells")

    def test_no_rows_at_largest_n_fail(self, tmp_path, capsys):
        # rows at n=255 do not make up for none at n=256
        law = tmp_path / "span3.json"
        law.write_text(json.dumps(SPAN3))
        rc = main(["verify", "--law", str(law), "--theorem", "T11i",
                   "--n", "255,256", "--out", str(tmp_path / "cmp.csv")])
        assert rc == 1
        out = capsys.readouterr().out.splitlines()
        assert "  n=256: no rows compared" in out
        assert out[-1].startswith("FAIL: no comparable cells at n=256")

    @pytest.mark.parametrize("theorem", ["T15_nu", "C12_particles"])
    def test_summary_prints_the_nu_tail_bound(self, theorem, law_file,
                                              tmp_path, capsys):
        # each n= line carries the error bound nu_and_particles returns;
        # the table keeps its columns
        out = tmp_path / "cmp.csv"
        main(["verify", "--law", law_file, "--theorem", theorem,
              "--n", "64,256", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        law = load_law(law_file)
        for n in (64, 256):
            [line] = [s for s in lines if s.startswith(f"  n={n}: ")]
            bound = float(line.rsplit(", tail bound ", 1)[1])
            assert bound == engine.nu_and_particles(law, n)[1]
        assert out.read_text().splitlines()[0] == \
            "theorem,law,n,x,y,exact,rhs,rel_err"

    def test_entrance_sites_outside_the_profile_are_skipped(
            self, law_file, tmp_path, capsys):
        # l1 enters (-inf, 0] only at -1 and 0: y = -3, -2 lie below the
        # entry profile and y = 1, 2 above it, so both sides are 0 there
        out = tmp_path / "cmp.csv"
        assert main(["verify", "--law", law_file, "--theorem", "T14",
                     "--n", "64,256", "--ys=-3,-2,-1,0,1,2",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        for n, x in ((64, 2), (256, 4)):
            for y in (-3, -2, 1, 2):
                assert (f"skipped: T14 n={n} x={x} y={y}: exact = rhs = 0"
                        in text)
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert sorted((int(r[2]), int(r[4])) for r in rows) == [
            (64, -1), (64, 0), (256, -1), (256, 0)]
        assert all(float(r[5]) > 0 for r in rows)

    @pytest.mark.parametrize("theorem, signed", [
        ("T11i", ["--eta", "-0.2,0.2"]),
        ("T14", ["--ys", "-1,0"]),
    ])
    def test_signed_list_follows_its_flag(self, theorem, signed, law_file,
                                          tmp_path):
        # a list that starts with "-" is the flag's value, as in the "=" form
        out = [tmp_path / "spaced.csv", tmp_path / "joined.csv"]
        argv = ["verify", "--law", law_file, "--theorem", theorem,
                "--n", "64,256", "--tol", "100"]
        assert main(argv + signed + ["--out", str(out[0])]) == 0
        assert main(argv + ["=".join(signed), "--out", str(out[1])]) == 0
        assert out[0].read_bytes() == out[1].read_bytes()

    def test_slopes_keep_the_two_signs_of_x_apart(self, law_file, tmp_path,
                                                  capsys, monkeypatch):
        # P12_Qplus at xi = 0 has cells x = 1 (xi 0.0) and x = -1 (xi -0.0),
        # which compare equal: each gets its own slope over its two rows;
        # the digits are those of the one-step streams
        monkeypatch.setattr(dp, "BLOCK_STEPS", 1)
        assert main(["verify", "--law", law_file, "--theorem", "P12_Qplus",
                     "--xi", "0", "--n", "256,1024",
                     "--out", str(tmp_path / "cmp.csv")]) == 0
        out = capsys.readouterr().out.splitlines()
        slopes = [line for line in out if "slope" in line][1:]
        assert [line.split(":")[0] for line in slopes] == [
            "  P12_Qplus xi=-0.0 eta=0.0", "  P12_Qplus xi=0.0 eta=0.0"]
        assert slopes[0].endswith("final rel_err 0.00013513446915443462")
        assert slopes[1].endswith("final rel_err 0.0031900786990532283")

    def test_left_continuous_nu_compares_nothing(self, tmp_path, capsys):
        # C+ = 0 on srw: nu_n and its limit are both 0.0 at every n, so every
        # cell is skipped and the grid fails as one that compares nothing
        law = tmp_path / "srw.json"
        law.write_text(json.dumps(
            {"name": "srw", "pairs": [[-1, "1/2"], [1, "1/2"]]}))
        out = tmp_path / "cmp.csv"
        rc = main(["verify", "--law", str(law), "--theorem", "T15_nu",
                   "--n", "64,256", "--out", str(out)])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "FAIL: no comparable cells at n=256 (2 skipped)"
        assert [s for s in lines if s.startswith("  skipped: ")] == [
            f"  skipped: T15_nu n={n} x=0 y=0: exact = rhs = 0"
            for n in (64, 256)]
        assert out.read_text() == "theorem,law,n,x,y,exact,rhs,rel_err\n"

    @pytest.mark.parametrize("theorem, flags", [
        ("T11i", ["--ys", "0,-1,-2"]),
        ("T15_nu", ["--xi", "0.2,0.7"]),
        ("T15_nu", ["--ell", "2"]),
        ("T13", ["--alpha", "0.3"]),
        ("T13", ["--a-circ", "3"]),
        ("C11", ["--eta", "0.5"]),
        ("T14", ["--eta", "0.5"]),
        ("P61_ralpha", ["--ell", "0.5"]),
        ("C12_particles", ["--xi", "0.5"]),
    ])
    def test_unread_flag_is_usage_error(self, theorem, flags, law_file,
                                        tmp_path, capsys, monkeypatch):
        # a flag whose value the theorem would drop exits 2 before any DP
        monkeypatch.setattr(dp, "_steps", None)
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as e:
            main(["verify", "--law", law_file, "--theorem", theorem,
                  "--n", "64,256", *flags, "--out", str(out)])
        assert e.value.code == 2
        assert (f"error: argument {flags[0]}: {theorem} does not read it"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("theorem, flags", [
        ("C11", ["--eta", "0.2"]),
        ("T15_nu", ["--xi", "0.2", "--eta", "0.2", "--alpha", "0.5",
                    "--ell", "1", "--a-circ", "2"]),
        ("C12_particles", ["--ell", "2"]),
        ("P61_ralpha", ["--alpha", "0.3"]),
        ("T11i", ["--a-circ", "3"]),
    ])
    def test_read_or_default_flag_runs(self, theorem, flags, law_file,
                                       tmp_path):
        # a flag the theorem reads, or one that restates the default and
        # so drops nothing, runs the grid
        out = tmp_path / "x.csv"
        assert main(["verify", "--law", law_file, "--theorem", theorem,
                     "--n", "64,256", "--tol", "100", *flags,
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_unknown_theorem_is_usage_error(self, law_file, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--law", law_file, "--theorem", "nope",
                  "--out", str(tmp_path / "x.csv")])
        assert e.value.code == 2


class TestReport:
    def test_summary(self, law_file, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["report", "--law", law_file, "--n-big", "256",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "invariant suite" in text
        assert "[fail]" not in text

    @pytest.mark.parametrize("pairs", [
        [[-1, "5/8"], [1, "1/4"], [3, "1/8"]],
        [[-3, "1/8"], [-1, "1/4"], [1, "5/8"]],
    ])
    def test_wide_ladder_side_passes(self, pairs, tmp_path):
        # ladder heights {1, 2, 3} on one side, a unit jump on the other
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"name": "wide", "pairs": pairs}))
        out = tmp_path / "report.txt"
        assert main(["report", "--law", str(law), "--n-big", "256",
                     "--out", str(out)]) == 0
        assert "[fail]" not in out.read_text()

    @pytest.mark.parametrize("pairs", [
        [[-1, "1/2"], [1, "1/2"]], L1["pairs"], SPAN3["pairs"],
        [[z, "1/5"] for z in range(-2, 3)],
        [[z, "1/4"] for z in (-3, -1, 1, 3)],
    ], ids=["srw", "l1", "span3", "sym5", "odd4"])
    def test_tiny_n_big_passes(self, pairs, tmp_path):
        # the free Chapman-Kolmogorov sites +-sqrt(sigma2 n) off the argmax
        # can lie off the support of p^n at these n
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"name": "law", "pairs": pairs}))
        out = tmp_path / "report.txt"
        for n_big in range(1, 5):
            assert main(["report", "--law", str(law), "--n-big", str(n_big),
                         "--out", str(out)]) == 0, n_big
            assert "[fail]" not in out.read_text(), n_big

    def test_zero_step_bucket_run_is_skipped(self, law_file, tmp_path):
        # at n_big = 1 the descending buckets read a run of 0 steps, which
        # enters no height; the ascending run takes 1 step and is checked
        out = tmp_path / "report.txt"
        assert main(["report", "--law", law_file, "--n-big", "1",
                     "--out", str(out)]) == 0
        rows = [r.strip() for r in out.read_text().splitlines()
                if "ladder heights vs DP buckets" in r]
        assert rows[0].startswith("[pass] ascending ladder heights")
        assert rows[1] == ("[skip] descending ladder heights vs DP buckets: "
                           "residual 0 (tol 0) -- the half-line run from 1 "
                           "has 0 steps")


@pytest.mark.parametrize("argv, code, message", [
    (["verify", "--theorem", "T11i", "--n", "0"], 2,
     "argument --n: '0': need n >= 1"),
    (["verify", "--theorem", "T11i", "--n", "-4"], 2,
     "argument --n: '-4': need n >= 1"),
    (["verify", "--theorem", "P61_ralpha", "--alpha", "0"], 2,
     "argument --alpha: '0': need 0 < alpha <= 1"),
    (["verify", "--theorem", "P61_ralpha", "--alpha", "2"], 2,
     "argument --alpha: '2': need 0 < alpha <= 1"),
    (["verify", "--theorem", "C12_particles", "--ell", "-1"], 2,
     "argument --ell: '-1': need ell > 0"),
    (["compute", "--mode", "partial", "--alpha", "1.5", "--x", "3",
      "--n", "8"], 2, "argument --alpha: '1.5': need 0 <= alpha <= 1"),
    (["compute", "--mode", "free", "--x", "0", "--n", "-2"], 2,
     "argument --n: '-2': need n >= 0"),
    (["compute", "--mode", "halfline", "--x", "0", "--n", "8"], 1,
     "error: ConstraintViolation: halfline absorption requires start x >= 1"),
    (["verify", "--theorem", "T11i", "--n", "64", "--tol", "nan"], 2,
     "argument --tol: 'nan': need finite tol >= 0"),
    (["verify", "--theorem", "T11i", "--n", "64", "--tol", "-1"], 2,
     "argument --tol: '-1': need finite tol >= 0"),
    (["verify", "--theorem", "T11i", "--n", "64", "--xi", "5",
      "--a-circ", "nan"], 2,
     "argument --a-circ: 'nan': need finite a_circ > 0"),
    (["verify", "--theorem", "T11i", "--n", "64", "--a-circ", "inf"], 2,
     "argument --a-circ: 'inf': need finite a_circ > 0"),
    (["verify", "--theorem", "T11i", "--n", "64", "--xi", "nan"], 2,
     "argument --xi: 'nan': need finite xi"),
    (["verify", "--theorem", "T11i", "--n", "64", "--xi", "0.2,inf"], 2,
     "argument --xi: '0.2,inf': need finite xi"),
    (["verify", "--theorem", "C11", "--n", "64", "--eta=-inf"], 2,
     "argument --eta: '-inf': need finite eta"),
    (["verify", "--theorem", "C12_particles", "--n", "64", "--ell", "inf"], 2,
     "argument --ell: 'inf': need finite ell"),
    (["kernels", "--table-window", "-3"], 2,
     "argument --table-window: '-3': need table window >= 1"),
    (["kernels", "--table-window", "0"], 2,
     "argument --table-window: '0': need table window >= 1"),
    (["kernels", "--pair-window", "0"], 2,
     "argument --pair-window: '0': need pair window >= 1"),
    (["kernels", "--pair-window", "1"], 1,
     "error: ConstraintViolation: pair window 1 is narrower than the 2 "
     "sites the entrance sums read for l1"),
    (["report", "--n-big", "-4"], 2,
     "argument --n-big: '-4': need n_big >= 1"),
    # finite, but past 2^53 once scaled: typed before any DP or Gaussian
    (["verify", "--theorem", "T11i", "--xi", "1e308"], 1,
     "error: ConstraintViolation: scaled coordinate 1e+308 * sqrt(sigma2 n) "
     "= inf at n=256 lies outside [-2^53, 2^53]"),
    (["verify", "--theorem", "T11i", "--xi", "1e300"], 1,
     "error: ConstraintViolation: scaled coordinate 1e+300 * sqrt(sigma2 n) "
     "= 1.85e+301 at n=256 lies outside [-2^53, 2^53]"),
    (["verify", "--theorem", "T11i", "--eta", "1e308"], 1,
     "error: ConstraintViolation: scaled coordinate 1e+308 * sqrt(sigma2 n) "
     "= inf at n=256 lies outside [-2^53, 2^53]"),
    (["verify", "--theorem", "T11i", "--eta", "1e300"], 1,
     "error: ConstraintViolation: scaled coordinate 1e+300 * sqrt(sigma2 n) "
     "= 1.85e+301 at n=256 lies outside [-2^53, 2^53]"),
    # a repeated n or y would write its rows twice (a slope at one n)
    (["verify", "--theorem", "T11ii", "--n", "256,256"], 2,
     "argument --n: '256,256': need distinct values"),
    (["verify", "--theorem", "T14", "--n", "64", "--ys=-1,0,-1"], 2,
     "argument --ys: '-1,0,-1': need distinct values"),
    # a negative xi would read the start x = 1 at every n
    (["verify", "--theorem", "T11i", "--n", "64,256", "--xi", "-0.1,0.2"],
     1, "error: ConstraintViolation: xi = -0.1 < 0: a grid's start "
     "x = xi sqrt(sigma2 n) needs xi >= 0"),
    # so would a repeated xi or eta; 0 and -0 are one value
    (["verify", "--theorem", "C11", "--n", "64", "--xi", "0.2,0.2"], 2,
     "argument --xi: '0.2,0.2': need distinct values"),
    (["verify", "--theorem", "P12_Qplus", "--n", "64", "--xi", "0,-0"], 2,
     "argument --xi: '0,-0': need distinct values"),
    (["verify", "--theorem", "T11ii", "--n", "64", "--eta", "0.2,0.5,0.2"],
     2, "argument --eta: '0.2,0.5,0.2': need distinct values"),
])
def test_bad_input_is_a_typed_error(argv, code, message, law_file, tmp_path,
                                    capsys):
    out = tmp_path / "out.csv"
    try:
        rc = main(argv + ["--law", law_file, "--out", str(out)])
    except SystemExit as e:
        rc = e.code
    assert rc == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_import_loads_no_other_library_and_builds_no_plan():
    """Importing the CLI in a fresh process loads, beside the standard
    library, numpy and mpmath (with mpmath's optional gmpy2) only, and
    builds no DP plan: the strip plans and the powers of the taps are
    built when a stream first needs them.  Every cache of dp is read, so
    none escapes the check."""
    code = ("import sys; before = set(sys.modules); import walklab.cli; "
            "from walklab import dp; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "- {m.split('.')[0] for m in before})); "
            "print({name: f.cache_info().currsize for name, f in "
            "vars(dp).items() if hasattr(f, 'cache_info')})")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(walklab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    loaded = set(ast.literal_eval(out[0])) - set(sys.stdlib_module_names)
    assert {"numpy", "mpmath"} <= loaded <= {"numpy", "mpmath", "gmpy2",
                                             "walklab"}
    sizes = ast.literal_eval(out[1])
    assert {"_plan_slot", "_phase_taps", "_power_list"} <= set(sizes)
    assert set(sizes.values()) == {0}

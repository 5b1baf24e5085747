"""Command-line interface: subcommands, exit codes, artifact outputs."""
import json

import pytest

from walklab.cli import main

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


class TestCompute:
    def test_point_slice(self, law_file, tmp_path, capsys):
        out = tmp_path / "slice.csv"
        assert main(["compute", "--law", law_file, "--mode", "point",
                     "--x", "3", "--n", "32", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,x,n,y,value"
        assert all(row.startswith("point,3,32,") for row in lines[1:])

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

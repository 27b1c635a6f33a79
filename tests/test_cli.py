import json

import numpy as np
import pytest

from octupolar import cli
from octupolar.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecompose:
    def test_zero_tensor(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"components": [0.0] * 27, "layout": "i9j3k"}))
        code, out, _ = run(capsys, "decompose", "--input", str(path))
        assert code == 0
        rep = json.loads(out)
        for part in rep["symmetry"].values():
            assert all(v == 0.0 for v in part["components"])

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "decompose", "--input", "/nonexistent.json")
        assert code == 2
        assert "error" in err


class TestEigen:
    def test_tetrahedral_report(self, capsys):
        code, out, _ = run(capsys, "eigen", "--rho", "0",
                           "--K", "0.7071067811865476")
        assert code == 0
        rep = json.loads(out)
        assert rep["critical_point_total"] == 14
        assert rep["counts"]["maximum"] == 4
        assert rep["index_sum"] == 2
        lam_max = max(abs(p["lambda"]) for p in rep["pairs"])
        assert abs(lam_max - 1.0) < 1e-9

    def test_every_pair_classified(self, capsys):
        _, out, _ = run(capsys, "eigen", "--rho", "0", "--K", "0.7071067811865476")
        pairs = json.loads(out)["pairs"]
        assert len(pairs) == 7
        assert all(set(p) == {"lambda", "x", "branch", "multiplicity", "kind", "index"}
                   for p in pairs)
        # one representative per antipodal class: 4 maxima, 4 minima, 6 saddles in all
        assert sorted(p["kind"] for p in pairs) == ["maximum"] + ["minimum"] * 3 + ["saddle"] * 3

    def test_monkey_saddle_report(self, capsys):
        code, out, _ = run(capsys, "eigen", "--rho", "1", "--chi", "-1.5707963267948966",
                           "--K", "0")
        assert code == 0
        rep = json.loads(out)
        assert rep["critical_point_total"] == 8 and rep["index_sum"] == 2
        assert rep["counts"]["monkey_saddle"] == 2
        monkey = [p for p in rep["pairs"] if p["kind"] == "monkey_saddle"]
        assert len(monkey) == 1 and monkey[0]["index"] == -2
        assert all("kind" in p and "index" in p for p in rep["pairs"])

    def test_negative_exponent_values(self, capsys):
        code, out, err = run(capsys, "eigen", "--rho", "0.5", "--chi", "-1.0", "--K", "-1e-05")
        assert code == 0, err
        assert json.loads(out)["params"]["K"] == -1e-05
        code, out, err = run(capsys, "eigen", "--rho", "0.5", "--chi", "-1.5e0", "--K", "0.3")
        assert code == 0, err
        assert json.loads(out)["params"]["chi"] == -1.5

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "eigen", "--rho", "3.0", "--K", "0.5")
        assert code == 2

    def test_chi_degrees(self, capsys):
        code, out, _ = run(capsys, "eigen", "--rho", "0.5", "--chi", "-60",
                           "--chi-degrees", "--K", "0")
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["params"]["chi"] + np.pi / 3) < 1e-12

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "eigen", "--rho", "0.8", "--chi", "-1.0", "--K", "0.6")
        _, out2, _ = run(capsys, "eigen", "--rho", "0.8", "--chi", "-1.0", "--K", "0.6")
        assert out1 == out2


class TestScan:
    def test_counts_near_meridian_plane(self, capsys):
        code, out, _ = run(capsys, "scan", "--chi", "-1.5707963",
                           "--rho-steps", "6", "--k-max", "2", "--k-steps", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho,chi,K,count"
        counts = {int(l.split(",")[3]) for l in lines[1:]}
        assert counts <= {10, 12, 14}
        assert len(lines) == 37

    def test_on_separatrix(self, capsys):
        code, out, _ = run(capsys, "scan", "--chi", "-1.0471975511965976",
                           "--rho-steps", "4", "--k-max", "2", "--k-steps", "2",
                           "--on-separatrix")
        assert code == 0
        counts = [int(l.split(",")[3]) for l in out.strip().split("\n")[1:]]
        assert all(c in (10, 12) for c in counts)


class TestParserReuse:
    """`main` keeps one parser for the process; no call leaves state for the next."""

    SCAN = ("scan", "--chi", "-1.0471975511965976", "--rho-steps", "3", "--k-max", "2",
            "--k-steps", "2")

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_scan_flag_does_not_stick(self, capsys):
        cli._parser.cache_clear()
        _, plain, _ = run(capsys, *self.SCAN)
        code, on_sep, _ = run(capsys, *self.SCAN, "--on-separatrix")
        assert code == 0 and on_sep != plain
        code, again, _ = run(capsys, *self.SCAN)
        assert code == 0 and again == plain

    def test_chi_degrees_does_not_stick(self, capsys):
        code, out, _ = run(capsys, "eigen", "--rho", "0.5", "--chi", "-60", "--chi-degrees")
        assert code == 0 and abs(json.loads(out)["params"]["chi"] + np.pi / 3) < 1e-12
        code, out, _ = run(capsys, "eigen", "--rho", "0.5", "--chi", "-1.0")
        assert code == 0 and json.loads(out)["params"]["chi"] == -1.0

    def test_usage_error_then_valid_call(self, capsys):
        _, want, _ = run(capsys, "eigen", "--rho", "0.8", "--chi", "-1.0", "--K", "0.6")
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--rho", "0.8", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, got, _ = run(capsys, "eigen", "--rho", "0.8", "--chi", "-1.0", "--K", "0.6")
        assert code == 0 and got == want


class TestSeparatrixCmd:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "separatrix", "--chi", "-1.0471975511965976",
                           "--rho-min", "0.5", "--rho-max", "1.8", "--rho-steps", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho,chi,k_star,s_star,branch"
        assert len(lines) == 6


class TestTrace:
    def test_mu_report(self, capsys):
        code, out, _ = run(capsys, "trace", "--mu", "1.0")
        assert code == 0
        rep = json.loads(out)
        labels = {p["label"] for p in rep["points"]}
        assert labels == {"p1", "p2", "p3", "p4", "p5"}

    def test_degenerate(self, capsys):
        code, out, _ = run(capsys, "trace", "--a2", "0", "--a3", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["continuum_meridian"]


class TestLc:
    def test_report(self, tmp_path, capsys):
        grad = np.zeros((3, 3))
        grad[0, 0] = grad[1, 1] = 0.5
        path = tmp_path / "lc.json"
        path.write_text(json.dumps({"gradient": grad.ravel().tolist(),
                                    "n": [0.0, 0.0, 1.0]}))
        code, out, _ = run(capsys, "lc", "--input", str(path),
                           "--k11", "1", "--k22", "1", "--k33", "1", "--k24", "0.2")
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["S"] - 1.0) < 1e-12
        assert abs(rep["energy"]["classic"] - rep["energy"]["modes"]) < 1e-12
        assert rep["energy"]["ericksen_ok"]


class TestCeigen:
    def test_rank_one(self, tmp_path, capsys):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        a = 2.0 * np.einsum("i,j,k->ijk", x, y, y)
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"components": a.ravel().tolist(),
                                    "layout": "i9j3k"}))
        code, out, _ = run(capsys, "ceigen", "--input", str(path), "--starts", "16")
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["triples"][0]["lambda"] - 2.0) < 1e-9
        assert len(rep["rank_one_terms"]) == 1

    def test_symmetry_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"components": rng.normal(size=27).tolist(),
                                    "layout": "i9j3k"}))
        code, _, err = run(capsys, "ceigen", "--input", str(path))
        assert code == 2


class TestGrid:
    def test_row_count_and_pole(self, capsys):
        code, out, _ = run(capsys, "grid", "--rho", "0.5", "--chi",
                           "-1.0471975511965976", "--K", "0",
                           "--theta-steps", "181", "--phi-steps", "91")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,phi,x1,x2,x3,phi_value"
        assert len(lines) == 16471 + 1
        pole_rows = [l for l in lines[1:] if float(l.split(",")[4]) == 1.0]
        assert pole_rows
        assert all(abs(float(l.split(",")[5]) - 1.0) < 1e-12 for l in pole_rows)

    def test_file_output(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "grid", "--rho", "0.5", "--K", "0",
                         "--theta-steps", "4", "--phi-steps", "3",
                         "--output", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("theta,phi,")
        assert "\r" not in text

    def test_contour_mode(self, capsys):
        code, out, _ = run(capsys, "grid", "--rho", "0.5", "--K", "0",
                           "--theta-steps", "11", "--phi-steps", "11",
                           "--mode", "contour")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            assert vals[3] >= 0.0  # x2 chart covers the x2 >= 0 hemisphere

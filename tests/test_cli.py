import csv
import math

import numpy as np
import pytest

from dephase_lab import cli
from dephase_lab.validate import CheckResult, run_validation


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.strip())
    with open(path, newline="") as fh:
        data = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    header, rows = data[0], data[1:]
    return comments, header, rows


class TestRateGue:
    def test_schema_and_closed_forms(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["rate-gue", "--dims", "2,4", "--samples", "200",
                        "--seed", "5", "-o", str(out)]) == 0
        comments, header, rows = read_csv(str(out))
        assert comments[0] == "# dephase-lab schema v1"
        assert header == ["d", "gamma", "rate_haar", "rate_wick", "rate_mc_mean",
                          "rate_mc_stderr", "n_samples", "seed"]
        assert len(rows) == 2
        d2 = rows[0]
        assert float(d2[2]) == pytest.approx(4.0 / 3.0)
        assert float(d2[3]) == pytest.approx(1.0)
        assert int(d2[6]) == 200 and int(d2[7]) == 5

    def test_mc_lands_near_wick(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(["rate-gue", "--dims", "4", "--samples", "3000", "--seed", "6",
                 "-o", str(out)])
        _, _, rows = read_csv(str(out))
        mean, se = float(rows[0][4]), float(rows[0][5])
        assert abs(mean - 3.0) <= 3 * se

    def test_float_roundtrip_format(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(["rate-gue", "--dims", "2", "--samples", "50", "-o", str(out)])
        _, _, rows = read_csv(str(out))
        assert float(rows[0][2]) == 2.0 ** 2 / 3.0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        assert run_cli(["rate-gue", "--dims", "0", "--samples", "10",
                        "-o", str(tmp_path / "x.csv")]) == 2
        assert run_cli(["rate-gue", "--gamma", "-1",
                        "-o", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()


class TestCrossover:
    def test_header_and_inset(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", "--k-list", "1,2", "--n-max", "20",
                        "-o", str(out)]) == 0
        comments, header, rows = read_csv(str(out))
        eps_line = [c for c in comments if c.startswith("# epsilon_sq=")]
        assert eps_line and float(eps_line[0].split("=")[1]) \
            == pytest.approx(2.0 / 3.0)
        inset = [c for c in comments if c.startswith("# crossover_min_n")]
        got = {line.split(": ")[0].replace("# crossover_min_n ", ""): line.split(": ")[1]
               for line in inset}
        assert got["k=1 mode=approx"] == "6"
        assert got["k=2 mode=approx"] == "14"
        assert got["k=2 mode=exact-binomial"] == "13"
        assert header[:3] == ["n", "rate_gue", "rate_gue_wick"]
        assert len(rows) == 20

    def test_gue_column_closed_form(self, tmp_path):
        out = tmp_path / "c.csv"
        run_cli(["crossover", "--k-list", "1", "--n-max", "8", "-o", str(out)])
        _, _, rows = read_csv(str(out))
        for row in rows:
            n = int(row[0])
            assert float(row[1]) == pytest.approx(4.0 ** n / (2 ** n + 1), rel=1e-15)

    def test_mode_selects_bound_column(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli(["crossover", "--k-list", "2", "--n-max", "6", "--mode",
                 "approx", "-o", str(out_a)])
        run_cli(["crossover", "--k-list", "2", "--n-max", "6", "--mode",
                 "exact-binomial", "-o", str(out_b)])
        _, _, rows_a = read_csv(str(out_a))
        _, _, rows_b = read_csv(str(out_b))
        n = 4
        eps_sq = 2.0 / 3.0
        assert float(rows_a[n - 1][3]) == pytest.approx(
            2 * eps_sq * n ** 4 / 4.0)          # n^(2k)/(k!)^2
        assert float(rows_b[n - 1][3]) == pytest.approx(
            2 * eps_sq * math.comb(n, 2) ** 2)  # C(n,k)^2


class TestTfd:
    def test_sampling_run(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["tfd", "--n-qubits", "2", "--beta-list", "0,0.5",
                        "--t-max", "2", "--t-points", "3", "--samples", "25",
                        "--seed", "9", "-o", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == ["beta", "gamma_t", "purity_mean", "purity_stderr",
                          "purity_inf", "rate_exact", "rate_semicircle",
                          "rate_high_t", "rate_low_t"]
        assert len(rows) == 6
        first = rows[0]
        assert float(first[1]) == 0.0
        assert float(first[2]) == 1.0 and float(first[3]) == 0.0
        # beta = 0 rows: purity_inf exactly 1/d, high-T rate 2 gamma d.
        assert float(first[4]) == pytest.approx(0.25)
        assert float(first[7]) == pytest.approx(8.0)
        assert first[8] == ""

    def test_formula_only_fifty_qubits(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli(["tfd", "--formula-only", "--log2-dim", "50",
                        "--beta-list", "0.001", "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        row = rows[0]
        assert row[2] == "" and row[5] == ""
        assert float(row[6]) == pytest.approx(6.0e6, rel=1e-3)
        assert float(row[7]) == pytest.approx(2.0 ** 51)
        assert float(row[8]) == pytest.approx(6.0e6)

    def test_formula_only_moderate_dimension(self, tmp_path):
        # Below the finite-d cap the exact rate column is populated and
        # agrees with the library closed form.
        from dephase_lab.specfun import rate_tfd_gue_exact
        out = tmp_path / "f.csv"
        assert run_cli(["tfd", "--formula-only", "--log2-dim", "6",
                        "--beta-list", "0.5", "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        row = rows[0]
        assert float(row[5]) == pytest.approx(rate_tfd_gue_exact(0.5, 64, 1.0))
        assert float(row[4]) > 0.0   # annealed long-time purity

    def test_bad_beta_rejected(self, tmp_path, capsys):
        assert run_cli(["tfd", "--beta-list", "-1",
                        "-o", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()

    def test_formula_only_log2_dim_zero_sets_beta_c(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli(["tfd", "--formula-only", "--log2-dim", "0",
                        "-o", str(out)]) == 0
        comments, _, _ = read_csv(str(out))
        assert "# beta_c=1.7320508075688772" in comments


_FLOAT_FLAGS = [
    ("rate-gue", "--gamma", ["--dims", "2", "--samples", "10"]),
    ("crossover", "--gamma", ["--n-max", "6"]),
    ("tfd", "--gamma", ["--formula-only"]),
    ("tfd", "--beta-list", ["--formula-only"]),
    ("tfd", "--t-max", ["--formula-only"]),
    ("tfd", "--log2-dim", ["--formula-only"]),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag,extra", _FLOAT_FLAGS)
def test_non_finite_flag_values_exit_2(tmp_path, capsys, command, flag, extra,
                                       value):
    out = tmp_path / "x.csv"
    argv = [command, *extra, f"{flag}={value}", "-o", str(out)]
    assert run_cli(argv) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_beta_among_finite_ones_exit_2(tmp_path, capsys):
    assert run_cli(["tfd", "--formula-only", "--beta-list", "0.1,nan,1",
                    "-o", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


class TestDeterminism:
    def test_threads_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rate-gue", "--dims", "2,8", "--samples", "400", "--seed", "11"]
        run_cli(args + ["--threads", "1", "-o", str(a)])
        run_cli(args + ["--threads", "2", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tfd_threads_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["tfd", "--n-qubits", "2", "--beta-list", "0.3", "--t-points", "3",
                "--t-max", "1", "--samples", "40", "--seed", "12"]
        run_cli(args + ["--threads", "1", "-o", str(a)])
        run_cli(args + ["--threads", "3", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_quick_run_passes(self, capsys):
        assert run_cli(["validate", "--quick", "--seed", "100"]) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured and "FAIL" not in captured

    def test_tampered_tolerance_fails(self, capsys, monkeypatch):
        import dephase_lab.validate as val

        def broken(seed, quick=False):
            return [CheckResult("tampered", False, "forced failure")]

        monkeypatch.setattr(cli, "run_validation", broken)
        assert run_cli(["validate", "--quick"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_direct_tolerance_tightening_fails(self):
        from dephase_lab.validate import _check_hs_quadrature
        results = _check_hs_quadrature(100, tol=1e-30)
        assert not results[0].passed

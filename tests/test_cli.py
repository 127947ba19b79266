import csv
import io
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

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
        assert comments[0] == "# dephase-lab schema v3"
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
        # agrees with the library closed form; no closed form gives the
        # quenched plateau, so purity_inf is blank.
        from dephase_lab.specfun import rate_tfd_gue_exact
        out = tmp_path / "f.csv"
        assert run_cli(["tfd", "--formula-only", "--log2-dim", "6",
                        "--beta-list", "0.5", "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        row = rows[0]
        assert float(row[5]) == pytest.approx(rate_tfd_gue_exact(0.5, 64, 1.0))
        assert row[4] == ""

    def test_formula_only_fractional_log2_dim_uses_one_dimension(self, tmp_path):
        # 2**13.6 is no integer, so the row takes the above-cap route: blank
        # rate_exact, and the other rate columns at d = 2**13.6.  Whole-number
        # rows keep the finite-d rate.  purity_inf is blank in every row.
        from dephase_lab.specfun import (rate_tfd_gue_exact,
                                         rate_tfd_gue_semicircle)
        for log2d, finite in (("13.6", False), ("13", True), ("14", True)):
            out = tmp_path / f"f{log2d}.csv"
            assert run_cli(["tfd", "--formula-only", "--log2-dim", log2d,
                            "--beta-list", "0.001,0.1,3", "-o", str(out)]) == 0
            _, _, rows = read_csv(str(out))
            dim = 2.0 ** float(log2d)
            for row in rows:
                beta = float(row[0])
                if finite:
                    assert float(row[5]) == rate_tfd_gue_exact(beta, int(dim), 1.0)
                else:
                    assert row[5] == ""
                assert row[4] == ""
                assert float(row[6]) == rate_tfd_gue_semicircle(beta, dim, 1.0)
                assert float(row[7]) == 2.0 * dim

    def test_bad_beta_rejected(self, tmp_path, capsys):
        assert run_cli(["tfd", "--beta-list", "-1",
                        "-o", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()

    def test_formula_only_overflowing_dimension_exit_2(self, tmp_path, capsys):
        # 2**1e6 is not a finite double.
        out = tmp_path / "f.csv"
        assert run_cli(["tfd", "--formula-only", "--log2-dim", "1e6",
                        "-o", str(out)]) == 2
        assert "--log2-dim is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_log2_dim_without_formula_only_exit_2(self, tmp_path, capsys):
        # Sampled rows are at d = 2^n_qubits; a --log2-dim there would only
        # put another dimension's beta_c in the header.
        out = tmp_path / "t.csv"
        assert run_cli(["tfd", "--n-qubits", "4", "--log2-dim", "20",
                        "--samples", "3", "-o", str(out)]) == 2
        assert "--log2-dim applies only with --formula-only" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_sampling_reads_one_spectrum_stream(self, tmp_path):
        # Every beta's rows come from the one draw set on stream (seed, 0).
        from dephase_lab.dynamics import ensemble_purity_tfd
        from dephase_lab.ensembles import RngStream
        out = tmp_path / "t.csv"
        assert run_cli(["tfd", "--n-qubits", "3", "--beta-list", "0,2",
                        "--t-max", "1", "--t-points", "2", "--samples", "5",
                        "--seed", "13", "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        curves = ensemble_purity_tfd(3, [0.0, 2.0], 1.0, np.array([0.0, 1.0]),
                                     5, RngStream(13, 0))
        for j, curve in enumerate(curves):
            assert float(rows[2 * j + 1][2]) == curve.purity.mean[1]
            assert float(rows[2 * j][4]) == curve.purity_inf.mean

    def test_formula_only_log2_dim_zero_sets_beta_c(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli(["tfd", "--formula-only", "--log2-dim", "0",
                        "-o", str(out)]) == 0
        comments, _, _ = read_csv(str(out))
        assert "# beta_c=1.7320508075688772" in comments


_SWEEP_BETAS = ["0", "1e-150", "1e-9", "1", "3", "30", "1e3", "1e20", "1e40",
                "1e62", "1e100", "1e154", "1e160", "1e300"]


@pytest.mark.parametrize("log2d", [*map(str, range(15)), "0.5", "13.6", "20",
                                   "50", "1020"])
def test_formula_only_domain_sweep(capsys, log2d):
    # Every cell is finite and in range, or blank by the README rule;
    # exit 3 only where a true value overflows a double.
    dim = 2.0 ** float(log2d)
    exact = float(log2d) <= cli.EXACT_RATE_LOG2_CAP and float(log2d).is_integer()
    big = Fraction(sys.float_info.max)
    for text in _SWEEP_BETAS:
        beta = float(text)
        low_t = 6 / Fraction(beta) ** 2 if beta > 0 else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["tfd", "--formula-only", "--log2-dim", log2d,
                          "--beta-list", text])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out = capsys.readouterr().out
        if 2 * dim > big or (low_t is not None and low_t > big):
            assert rc == 3 and out == ""
            continue
        assert rc == 0, (log2d, text)
        row = list(csv.reader(io.StringIO(out)))[-1]
        assert float(row[0]) == beta and row[1:5] == ["", "", "", ""]
        high_t = 2.0 * dim
        if exact:
            r_exact = float(row[5])
            assert 0.0 < r_exact <= high_t * (1 + 1e-12), (log2d, text)
            if beta >= 1e20:
                assert r_exact == 2.0
        else:
            assert row[5] == ""
        r_semi = float(row[6])
        assert 0.0 <= r_semi <= high_t * (1 + 1e-12), (log2d, text)
        assert float(row[7]) == high_t
        if low_t is None:
            assert row[8] == ""
        else:
            assert math.isclose(float(row[8]), float(low_t), rel_tol=1e-15,
                                abs_tol=1e-322)
            if math.sqrt(2.0 * dim) * beta > 1e4:       # deep below beta_c
                assert math.isclose(r_semi, float(low_t), rel_tol=1e-4,
                                    abs_tol=1e-322), (log2d, text)


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


@pytest.mark.parametrize("argv", [
    # 2**1023 is finite, but 2 gamma d and the semicircle partition
    # functions are not.
    ["tfd", "--formula-only", "--log2-dim", "1023", "--beta-list", "0,1"],
    ["tfd", "--formula-only", "--log2-dim", "8", "--gamma", "1e308"],
    ["rate-gue", "--dims", "2", "--samples", "10", "--gamma", "1e308"],
    ["crossover", "--n-max", "1000"],       # rate_gue at d = 2**512 is inf
    ["crossover", "--n-max", "1100"],       # float(2**1024) overflows
    ["tfd", "--formula-only", "--beta-list", "1e-300"],  # beta**2 is 0.0
])
def test_non_finite_results_exit_3_without_a_row(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run_cli([*argv, "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command,extra", [
    ("rate-gue", ["--dims", "2", "--samples", "10"]),
    ("crossover", ["--n-max", "6"]),
    ("tfd", ["--formula-only"]),
    ("validate", ["--quick"]),
])
def test_threads_below_one_exit_2(tmp_path, capsys, command, extra, threads):
    out = tmp_path / "x.csv"
    assert run_cli([command, *extra, "--threads", threads, "-o", str(out)]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


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


def _run_fresh(code, *argv):
    # A fresh interpreter, since the test suite itself imports the modules
    # these tests look for.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sampling_never_imports_scipy(tmp_path):
    # scipy is a test-only extra: importing it would double the CLI's
    # start-up time.
    _run_fresh("import sys\n"
               "import dephase_lab.cli as cli\n"
               "rc = cli.main(['tfd', '--n-qubits', '3', '--beta-list', '0,1',\n"
               "               '--t-points', '3', '--samples', '4',\n"
               "               '-o', sys.argv[1]])\n"
               "assert rc == 0, rc\n"
               "assert 'scipy' not in sys.modules\n", str(tmp_path / "t.csv"))


def test_serial_run_never_imports_the_pool_module(tmp_path):
    # Importing concurrent.futures costs about 20 ms per launch; only a run
    # that starts workers needs it.
    _run_fresh("import sys\n"
               "import dephase_lab.cli as cli\n"
               "rc = cli.main(['rate-gue', '--dims', '2,3', '--samples', '10',\n"
               "               '-o', sys.argv[1]])\n"
               "assert rc == 0, rc\n"
               "assert 'concurrent.futures' not in sys.modules\n",
               str(tmp_path / "r.csv"))

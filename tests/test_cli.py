import csv
import gc
import io
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dephase_lab import cli
from dephase_lab.specfun import calibrate_epsilon
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
        assert comments[0] == "# dephase-lab schema v14"
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

    @pytest.mark.parametrize("dims", ["1025", "1000000", "2,1000000"])
    def test_oversized_dimension_exit_2(self, tmp_path, capsys, monkeypatch, dims):
        # Rejected before any draw: sampling here would fail on memory.
        from dephase_lab import rates
        monkeypatch.setattr(rates, "rate_gue_mc", _never_called)
        out = tmp_path / "x.csv"
        assert run_cli(["rate-gue", "--dims", dims, "--samples", "2",
                        "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration error: --dims must be at most 1024\n"
        assert captured.out == "" and not out.exists()

    def test_dimension_cap_is_inclusive(self, tmp_path, monkeypatch):
        from dephase_lab import ensembles, rates
        seen = []

        def fake(psi, gamma, d, n, rng, workers=1):
            seen.append(d)
            return ensembles.EnsembleEstimate(1.0, 0.5)
        monkeypatch.setattr(rates, "rate_gue_mc", fake)
        assert run_cli(["rate-gue", "--dims", "1024", "--samples", "2",
                        "-o", str(tmp_path / "r.csv")]) == 0
        assert seen == [1024]

    def test_sampling_at_the_dimension_cap(self, tmp_path):
        # A basis state draws 2d - 1 normals per channel, so d = 2^10 takes
        # well under a second where d^2 normals took about 15 s.
        out = tmp_path / "r.csv"
        t0 = time.perf_counter()
        assert run_cli(["rate-gue", "--dims", "1024", "--samples", "600",
                        "--threads", "1", "-o", str(out)]) == 0
        assert time.perf_counter() - t0 < 5.0
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        mean, se = float(row["rate_mc_mean"]), float(row["rate_mc_stderr"])
        assert se > 0 and abs(mean - 1023) <= 5 * se


def _never_called(*args, **kwargs):
    raise AssertionError("rate_gue_mc was called")


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

    @pytest.mark.parametrize("gamma", ["5e-324", "1e-310"])
    def test_calibration_at_a_subnormal_gamma(self, tmp_path, gamma):
        # The channel rate cancels from epsilon_sq, so the calibration and
        # the crossover lines read as at --gamma 1.
        comments = {}
        for g in (gamma, "1"):
            out = tmp_path / f"c{g}.csv"
            assert run_cli(["crossover", "--k-list", "1", "--n-max", "3",
                            "--gamma", g, "-o", str(out)]) == 0
            comments[g] = [c for c in read_csv(str(out))[0]
                           if c.startswith(("# epsilon_sq", "# crossover_min_n"))]
        assert comments[gamma] == comments["1"]
        # The least double at or above 2/3, so n0 is never counted as crossed.
        assert comments["1"][0] == "# epsilon_sq=0.66666666666666674"

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

    @pytest.mark.parametrize("n_max", [511, 512, 1023])
    def test_rate_is_finite_up_to_the_largest_double(self, tmp_path, n_max):
        # d^2 overflows a double from d = 2^512 on; Gamma d^2/(d+1), about
        # Gamma d, does not.  Every row is the correctly rounded quotient of
        # the integers 4^n and 2^n + 1 (so 2^53 - 1 at n = 53, not 2^53).
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", "--n-max", str(n_max), "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        assert len(rows) == n_max
        for row in rows:
            n = int(row[0])
            assert float(row[1]) == 4 ** n / (2 ** n + 1)

    def test_kbody_bound_overflows_only_past_the_largest_double(self, tmp_path,
                                                                capsys):
        # Calibrated at n0 = 1023, eps^2 is about 4e301.  The k = 5 bound
        # 2 gamma eps^2 n^10/(5!)^2 is 5.96e307 at n = 11 (finite, although
        # eps^2 n^10 alone is not) and passes the largest double at n = 12.
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", "--n0", "1023", "--n-max", "11",
                        "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        eps_sq = calibrate_epsilon(1023, 1, 1.0)
        want = 2 * Fraction(eps_sq) * 11 ** 10 / math.factorial(5) ** 2
        assert float(rows[-1][-1]) == pytest.approx(float(want), rel=1e-15)
        assert float(rows[-1][-1]) > 5.9e307
        assert run_cli(["crossover", "--n0", "1023", "--n-max", "12",
                        "-o", str(out)]) == 3
        assert capsys.readouterr().err.endswith(
            "rate_kbody_k5 is inf in the row for n=12\n")

    def test_rate_is_finite_where_gamma_d_overflows(self, tmp_path):
        # At gamma = 5e307, gamma d overflows from d = 4 on, but
        # gamma d^2/(d+1) = 1.6e308 does not; every column is finite.
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", "--k-list", "2", "--n-max", "2", "--mode",
                        "exact-binomial", "--gamma", "5e307", "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        assert all(math.isfinite(float(x)) for row in rows for x in row if x)
        assert float(rows[1][1]) == pytest.approx(5e307 * (16 / 5), rel=1e-15)
        assert float(rows[1][3]) == pytest.approx(5e307 * (4 / 3), rel=1e-15)

    def test_kbody_bound_finite_where_two_gamma_overflows(self, tmp_path):
        # 2 gamma passes the largest double at gamma = 1e308, but the k = 1
        # bound 2 gamma eps^2 with eps^2 near 2/3 does not: it is rounded once.
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", "--k-list", "1", "--n-max", "1",
                        "--gamma", "1e308", "-o", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == ["n", "rate_gue", "rate_gue_wick", "rate_kbody_k1"]
        gamma = Fraction(1e308)
        assert [float(x) for x in rows[0][1:]] == [
            float(gamma * 4 / 3), float(gamma), float(2 * gamma * Fraction(2, 3))]

    def test_kbody_bound_at_a_subnormal_gamma(self, tmp_path):
        # 2 gamma eps^2 n^4/4 is about 5.3 subnormal ulps at n = 2; it read 4
        # when 2 gamma eps^2 was rounded on the subnormal grid first.
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", "--gamma", "5e-324", "--k-list", "2",
                        "--n-max", "3", "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        eps = Fraction(math.sqrt(calibrate_epsilon(1, 1, 1.0)))
        for row in rows[1:]:
            n = int(row[0])
            want = 2 * Fraction(5e-324) * eps ** 2 * Fraction(n ** 4, 4)
            assert float(row[3]) == float(want), n
        assert float(rows[1][3]) == 2.4703282292062327e-323

    def test_kbody_bound_survives_an_overflowing_power(self, tmp_path):
        # 90^180 and the int (90!)^2 both pass the largest double and raise
        # OverflowError; the k = 90 bound at n = 90, about 3.5e75, does not.
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", "--k-list", "90", "--n-max", "90",
                        "-o", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        eps_sq = calibrate_epsilon(1, 1, 1.0)
        want = 2 * Fraction(eps_sq) * 90 ** 180 / math.factorial(90) ** 2
        assert float(rows[-1][-1]) == pytest.approx(float(want), rel=1e-12)

    def test_echo_line_records_gamma(self, tmp_path):
        # The rows scale with --gamma, so the echo line names it.
        echo, rows = {}, {}
        for g in ("1", "2"):
            out = tmp_path / f"c{g}.csv"
            assert run_cli(["crossover", "--k-list", "1", "--n-max", "3",
                            "--gamma", g, "-o", str(out)]) == 0
            comments, _, rows[g] = read_csv(str(out))
            echo[g] = comments[1]
        assert echo["2"] == ("# crossover: k_list=1 n_max=3 n0=1 gamma=2 "
                             "mode=approx seed=20250117")
        assert echo["1"] == echo["2"].replace("gamma=2", "gamma=1")
        assert rows["1"] != rows["2"]

    def test_n0_below_one_exit_2(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", "--n0", "0", "-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            "configuration error: --n0 must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--n-max", "1024"], ["--n0", "1024"]])
    def test_dimension_beyond_a_double_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "c.csv"
        assert run_cli(["crossover", *argv, "-o", str(out)]) == 2
        # 2**1024 overflows a double, so 1023 is the largest qubit number.
        assert capsys.readouterr().err == \
            f"configuration error: {argv[0]} must be at most 1023\n"
        assert not out.exists()


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

    def test_beta_past_a_double_times_the_levels_is_the_ground_state(self, capsys):
        # beta E overflows for every level, so each Gibbs weight used to be
        # NaN and the run exited 3; the ground state has purity 1, plateau 1
        # and the finite-d rate 2 gamma.
        assert run_cli(["tfd", "--n-qubits", "3", "--beta-list", "1e308",
                        "--samples", "4", "--t-points", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [f"1e+308,{t},1,0,1,2,0,16,0" for t in (0, 5, 10)]

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

    def test_formula_only_overflow_names_the_n_qubits_flag(self, tmp_path, capsys):
        # Without --log2-dim the dimension is 2**n_qubits, so the message
        # names the flag that was given.
        out = tmp_path / "f.csv"
        assert run_cli(["tfd", "--formula-only", "--n-qubits", "2000",
                        "-o", str(out)]) == 2
        assert capsys.readouterr().err == ("configuration error: --n-qubits is "
                                           "too large: 2**2000 overflows a double\n")
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

    @pytest.mark.parametrize("n_qubits", ["3", "7"])
    def test_beta_rows_do_not_depend_on_the_rest_of_the_beta_list(self, tmp_path,
                                                                  n_qubits):
        # Each beta's purity curve is summed in the same order whatever
        # the other betas of the call, below and above 64 levels.
        rows = {}
        for betas in ("1", "0,1,2.5"):
            out = tmp_path / f"t{len(betas)}.csv"
            assert run_cli(["tfd", "--n-qubits", n_qubits, "--beta-list", betas,
                            "--samples", "20", "--seed", "3", "-o", str(out)]) == 0
            rows[betas] = [r for r in read_csv(str(out))[2] if r[0] == "1"]
        assert len(rows["1"]) == 41
        assert rows["1"] == rows["0,1,2.5"]

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


_LIMIT_BETAS = ["1e-320", "1e-150", "1e-9", "1e-3", "1", "1e3", "1e150"]


def test_formula_only_is_finite_wherever_both_limits_are(capsys):
    # The semicircle rate lies between 0 and the larger of 2 gamma d
    # (x <= 50) and 6 gamma/beta^2 (x > 50), so a row is written wherever
    # both limits are finite doubles, up to d = 2^1022; elsewhere the run
    # exits 3 and names the first column that overflows.
    big = Fraction(sys.float_info.max)
    for log2d in sorted({*range(1, 1023, 11), 1020, 1021, 1022}):
        high_t = 2 * Fraction(2) ** log2d
        for text in _LIMIT_BETAS:
            low_t = 6 / Fraction(float(text)) ** 2
            rc = run_cli(["tfd", "--formula-only", "--log2-dim", str(log2d),
                          "--beta-list", text])
            captured = capsys.readouterr()
            over = [name for name, v in (("rate_high_t", high_t), ("rate_low_t", low_t))
                    if v > big]
            if over:
                assert rc == 3 and captured.out == "", (log2d, text)
                assert f"{over[0]} is inf" in captured.err, (log2d, text)
                continue
            assert rc == 0, (log2d, text, captured.err)
            row = list(csv.reader(io.StringIO(captured.out)))[-1]
            assert all(math.isfinite(float(v)) for v in row if v), (log2d, text)


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


@pytest.mark.parametrize("command,flag,extra", _FLOAT_FLAGS)
def test_non_number_flag_values_exit_2_naming_the_flag(tmp_path, capsys, command,
                                                       flag, extra):
    # A token that is not a number names its flag: argparse's message for a
    # scalar flag, _parse_list's for a --beta-list token.
    out = tmp_path / "x.csv"
    try:
        rc = run_cli([command, *extra, f"{flag}=abc", "-o", str(out)])
    except SystemExit as exc:
        rc = exc.code
    want = ("--beta-list must be a number" if flag == "--beta-list"
            else f"argument {flag}: invalid float value: 'abc'")
    assert rc == 2 and want in capsys.readouterr().err
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
    ["crossover", "--n-max", "1023", "--gamma", "4"],   # rate_gue 2**1025
    # rate_gue = gamma d passes the largest double at n = 592.
    ["crossover", "--k-list", "1", "--n-max", "600", "--gamma", "1e130"],
    ["tfd", "--formula-only", "--beta-list", "1e-300"],  # beta**2 is 0.0
    # Monte-Carlo samples that overflow: 2 gamma var V, 4 gamma var H.
    ["rate-gue", "--dims", "1,64", "--samples", "10", "--gamma", "1e307"],
    ["tfd", "--n-qubits", "2", "--samples", "10", "--gamma", "1e308"],
])
def test_non_finite_results_exit_3_without_a_row(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run_cli([*argv, "-o", str(out)]) == 3
    captured = capsys.readouterr()
    # One line on stderr: no floating-point warning leaks before it.
    assert captured.err.startswith("numerical failure")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["tfd", "--n-qubits", "1", "--samples", "2", "--t-points", "1000000000000"],
    ["rate-gue", "--dims", "2", "--samples", "1000000000000"],
])
def test_request_too_large_for_memory_exits_2(tmp_path, capsys, argv):
    # Each asks numpy for a 7 TiB array, which fails at once.
    out = tmp_path / "x.csv"
    assert run_cli([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: Unable to allocate")
    assert err.count("\n") == 1
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


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command,extra", [
    ("rate-gue", ["--dims", "2", "--samples", "10"]),
    ("crossover", ["--n-max", "6"]),
    ("tfd", ["--n-qubits", "2", "--t-points", "3", "--samples", "4"]),
    ("tfd", ["--formula-only"]),
    ("validate", ["--quick"]),
])
def test_seed_outside_uint64_exits_2(tmp_path, capsys, command, extra, seed):
    out = tmp_path / "x.csv"
    assert run_cli([command, *extra, "--seed", seed, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    bound = "at least 0" if seed == "-1" else f"at most {2 ** 64 - 1}"
    assert captured.err == f"configuration error: --seed must be {bound}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("seed", ["0", str(2 ** 64 - 1)])
def test_seed_range_ends_are_accepted(tmp_path, seed):
    out = tmp_path / "r.csv"
    assert run_cli(["rate-gue", "--dims", "2", "--samples", "10", "--seed", seed,
                    "-o", str(out)]) == 0
    assert read_csv(str(out))[2][0][7] == seed


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

        # cmd_validate imports run_validation when it runs, from this module.
        monkeypatch.setattr(val, "run_validation", broken)
        assert run_cli(["validate", "--quick"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_output_path_takes_the_report(self, tmp_path, capsys, monkeypatch):
        import dephase_lab.validate as val

        def mixed(seed, quick=False):
            return [CheckResult("good", True, "fine"),
                    CheckResult("bad-check", False, "forced failure")]

        monkeypatch.setattr(val, "run_validation", mixed)
        out = tmp_path / "v.txt"
        assert run_cli(["validate", "--quick", "-o", str(out)]) == 3
        assert capsys.readouterr().out == ""
        assert run_cli(["validate", "--quick"]) == 3
        printed = capsys.readouterr().out
        assert out.read_text() == printed
        assert printed.endswith("bad-check  FAIL  forced failure\n"
                                "1 of 2 checks failed\n")

    def test_direct_tolerance_tightening_fails(self, monkeypatch):
        import dephase_lab.validate as val
        monkeypatch.setattr(val, "_HS_TOL", 1e-30)
        assert not val._check_hs_quadrature(100)[0].passed


def _run_fresh(code, *argv, **env_vars):
    # A fresh interpreter, since the test suite itself imports the modules
    # these tests look for.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


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


@pytest.mark.parametrize("argv", [
    ["tfd", "--formula-only", "--log2-dim", "14", "--beta-list", "0,1,3"],
    ["crossover", "--k-list", "1,2,3", "--n-max", "50"],
])
def test_closed_form_commands_never_import_numpy(tmp_path, argv):
    # As `python -m dephase_lab` runs them: the package __init__, then
    # __main__.  Their closed forms are scalar math, with coefficient tables
    # built in Python integers: `import fractions` alone would add about
    # 4 ms to every launch.
    _run_fresh("import runpy, sys\n"
               "try:\n"
               "    runpy.run_module('dephase_lab', run_name='__main__')\n"
               "except SystemExit as exc:\n"
               "    assert exc.code == 0, exc.code\n"
               "assert 'numpy' not in sys.modules\n"
               "assert 'dataclasses' not in sys.modules\n"
               "assert 'fractions' not in sys.modules\n"
               "assert 'decimal' not in sys.modules\n",
               *argv, "-o", str(tmp_path / "c.csv"))
    assert (tmp_path / "c.csv").read_text().startswith("# dephase-lab schema v14")


def test_cli_import_leaves_the_lapack_handle_unloaded():
    # The dsterf lookup runs at the first spectrum, not at import time.
    _run_fresh("import dephase_lab.cli\n"
               "from dephase_lab import ensembles\n"
               "assert ensembles._dsterf.cache_info().currsize == 0\n")


def test_sampled_tfd_bytes_do_not_depend_on_the_blas_thread_count():
    # At d = 1024 the pair sum is far past OpenBLAS's threading threshold
    # for a matrix-vector product, and at d = 64 twelve betas stack twelve
    # rows of pairs; neither sum calls BLAS.  Only the two children's
    # environments are set, and they call `main`: the process entry `run`
    # would pin both to one BLAS thread.
    threads_seen = set()
    for argv in (["--n-qubits", "10", "--samples", "4"],
                 ["--n-qubits", "6", "--samples", "20",
                  "--beta-list", "0,0.1,0.25,0.5,0.75,1,1.5,2,3,5,8,13"]):
        outputs = []
        for threads in ("1", "2"):
            proc = _run_fresh(_CLI_UNDER_LEVERS, "tfd", *argv,
                              OPENBLAS_NUM_THREADS=threads)
            outputs.append(proc.stdout)
            threads_seen.add(proc.stderr.split("\n")[0].split()[2])
        assert outputs[0] == outputs[1], argv
    if threads_seen != {"1", "2"}:
        pytest.skip(f"OpenBLAS ran {sorted(threads_seen)} threads, so two "
                    f"thread counts were not compared")


# Runs the in-process CLI on argv[1:] after reporting on stderr the two CPU
# levers the child runs under, OpenBLAS's core type and whether numpy
# dispatches AVX-512, and OpenBLAS's thread count ('?' where numpy's linalg
# extension does not report it).
_CLI_UNDER_LEVERS = (
    "import ctypes, sys\n"
    "from numpy._core._multiarray_umath import __cpu_features__\n"
    "from numpy.linalg import _umath_linalg\n"
    "lib = ctypes.CDLL(_umath_linalg.__file__)\n"
    "core = getattr(lib, 'scipy_openblas_get_corename64_', None)\n"
    "threads = getattr(lib, 'scipy_openblas_get_num_threads64_', None)\n"
    "if core is not None:\n"
    "    core.restype = ctypes.c_char_p\n"
    "print(core().decode() if core else '?', __cpu_features__['X86_V4'],\n"
    "      threads() if threads else '?', file=sys.stderr)\n"
    "from dephase_lab._cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("variable,values", [
    ("OPENBLAS_CORETYPE", ["Haswell", "Sandybridge", "Prescott"]),
    ("NPY_DISABLE_CPU_FEATURES", ["X86_V4 AVX512_ICL AVX512_SPR"])])
def test_rate_gue_bytes_do_not_depend_on_the_cpu_kernels(variable, values):
    # OpenBLAS picks its kernels by core type, and numpy its SIMD paths by
    # CPU.  rate-gue's sums are einsum contractions and call no BLAS, so
    # neither lever may move a byte.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(extra):
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_UNDER_LEVERS, "rate-gue", "--dims",
             "2,4,8,16,32,64", "--samples", "600", "--seed", "1"],
            env=dict(env, **extra), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, proc.stderr.split("\n")[0]

    want, lever = run({})
    core, avx512, _ = lever.split()
    if variable == "OPENBLAS_CORETYPE" and core == "?":
        pytest.skip("this numpy's OpenBLAS does not report its core type")
    if variable == "NPY_DISABLE_CPU_FEATURES" and avx512 != "True":
        pytest.skip("numpy runs no AVX-512 path on this CPU, so the SIMD "
                    "level has nothing to switch off")
    runs = [run({variable: value}) for value in values]
    levers = [lever] + [got[1] for got in runs]
    assert len(set(levers)) > 1, f"{variable} changed nothing: {levers}"
    for value, (got, _) in zip(values, runs):
        assert got == want, (variable, value)


def test_cli_process_runs_one_blas_thread_and_freezes_the_collector(tmp_path):
    # `run` pins OpenBLAS to one thread, whatever the environment says,
    # before the sampling command imports numpy, and freezes the collector
    # before the process exits.
    proc = _run_fresh(
        "import ctypes, gc, os, sys\n"
        "from dephase_lab import _cli\n"
        "seen, main = [], _cli.main\n"
        "def spy(argv=None):\n"
        "    seen.append((os.environ['OPENBLAS_NUM_THREADS'],\n"
        "                 'numpy' in sys.modules))\n"
        "    return main(argv)\n"
        "_cli.main = spy\n"
        "assert _cli.run() == 0\n"
        "assert seen == [('1', False)], seen\n"
        "assert gc.get_freeze_count() > 0\n"
        "from numpy.linalg import _umath_linalg\n"
        "get = getattr(ctypes.CDLL(_umath_linalg.__file__),\n"
        "              'scipy_openblas_get_num_threads64_', None)\n"
        "print(get() if get else '?')\n",
        "tfd", "--n-qubits", "3", "--beta-list", "0,1", "--t-points", "3",
        "--samples", "4", "-o", str(tmp_path / "t.csv"),
        OPENBLAS_NUM_THREADS="2")
    if proc.stdout.strip() == "?":
        pytest.skip("this numpy's OpenBLAS does not report its thread count")
    assert proc.stdout.strip() == "1"


def test_main_leaves_the_environment_and_the_collector_alone(tmp_path):
    env = dict(os.environ)
    assert run_cli(["rate-gue", "--dims", "2,4", "--samples", "10",
                    "-o", str(tmp_path / "r.csv")]) == 0
    assert gc.get_freeze_count() == 0
    assert dict(os.environ) == env


def test_both_process_entries_go_through_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(cli.__file__), "..", "..",
                             "pyproject.toml")
    if not os.path.exists(pyproject):
        pytest.skip("the package does not run from its source tree")
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"dephase-lab": "dephase_lab._cli:run"}
    main_py = os.path.join(os.path.dirname(cli.__file__), "__main__.py")
    with open(main_py) as fh:
        assert "sys.exit(run())" in fh.read()


def test_serial_validate_uses_one_cpu(tmp_path):
    # OpenBLAS starts its threads when numpy loads, and an idle one made
    # a serial `validate --quick` use about 1.5 CPU seconds per wall second
    # on 2 cores.  The child's environment has no thread variable, so only
    # the CLI's own pin can keep it to one CPU.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open(tmp_path / "err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dephase_lab", "validate",
                                 "--quick", "--threads", "1"], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, (tmp_path / "err").read_text()
    cpu = usage.ru_utime + usage.ru_stime
    assert cpu <= 1.05 * wall, f"{cpu:.3f} CPU-s in {wall:.3f} s"


def test_package_import_loads_no_submodule():
    _run_fresh("import sys\n"
               "import dephase_lab\n"
               "loaded = [m for m in sys.modules if m.startswith('dephase_lab.')]\n"
               "assert loaded == [], loaded\n"
               "assert 'numpy' not in sys.modules\n")


def test_cli_module_imports_numpy_the_pool_and_every_module():
    # perfbench finds the functions it wraps, and times the package import,
    # through `import dephase_lab.cli`.
    _run_fresh("import pkgutil, sys\n"
               "import dephase_lab.cli\n"
               "names = [m.name for m in pkgutil.iter_modules(dephase_lab.__path__)]\n"
               "assert '_pool' in names and 'validate' in names, names\n"
               "want = ['numpy'] + ['dephase_lab.' + m for m in names\n"
               "                    if m != '__main__']\n"
               "missing = [m for m in want if m not in sys.modules]\n"
               "assert not missing, missing\n")


# The package's public names, by the module that owns each one.
PUBLIC_NAMES = {
    "exceptions": "DimensionMismatchError HermiticityError NumericalError "
                  "StepSizeError",
    "hermitian": "modified_covariance purity spectral_norm",
    "ensembles": "EnsembleEstimate RngStream gue_level_density "
                 "gue_trace_square_mc haar_fourth_moment haar_fourth_moment_exact "
                 "haar_second_moment haar_second_moment_exact hermite_phi "
                 "sample_gue sample_haar_unitary",
    "specfun": "KBodySpec bessel_i_ratio_g beta_crossover "
               "calibrate_epsilon crossover_min_n log_bessel_i1 log_laguerre_l "
               "rate_gue_haar rate_gue_wick rate_kbody_bound rate_tfd_gue_exact "
               "rate_tfd_gue_semicircle z_gue_exact z_gue_semicircle",
    "rates": "LindbladChannel build_kbody_operator "
             "build_tbre_operator decoherence_rate "
             "lmg_sector_spectrum rate_gue_mc rate_lmg tbre_rate_and_bound",
    "dynamics": "AnnealingCheck TfdPurityCurve TfdSystem "
                "annealing_check build_tfd ensemble_purity_tfd evolve_tfd "
                "gauss_hermite master_equation_rk4 purity_inf_tfd purity_tfd "
                "purity_tfd_hs rate_tfd",
    "trajectories": "TrajectoryAverage TrajectoryConfig average_trajectories "
                    "default_dt sse_trajectory tfd_two_noise_config",
}


def test_star_import_binds_every_public_name():
    # __all__ lists them; nothing is imported until the star import asks.
    names = sorted(n for names in PUBLIC_NAMES.values() for n in names.split())
    _run_fresh("import sys\n"
               "import dephase_lab\n"
               "assert 'numpy' not in sys.modules\n"
               "from dephase_lab import *\n"
               f"missing = [n for n in {names!r} if n not in globals()]\n"
               "assert not missing, missing\n"
               f"assert sorted(dephase_lab.__all__) == {names!r}\n")


def test_public_names_resolve_to_their_owners():
    import importlib
    import dephase_lab
    listed = dir(dephase_lab)
    assert dephase_lab.__version__ == "0.1.0"
    assert dephase_lab._OWNER == {name: owner for owner, names in PUBLIC_NAMES.items()
                                  for name in names.split()}
    for owner, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"dephase_lab.{owner}")
        for name in names.split():
            obj = getattr(dephase_lab, name)
            assert obj is getattr(module, name), name
            assert obj.__module__ == module.__name__, name
            assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dephase_lab.no_such_name
    with pytest.raises(ImportError):
        from dephase_lab import no_such_name  # noqa: F401

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from dephase_lab.dynamics import gauss_hermite
from dephase_lab.ensembles import RngStream, _gue_matrix, hermite_phi
from dephase_lab.specfun import (_laguerre_ratio_chain, bessel_i_ratio_g,
                                 beta_crossover, log_bessel_i1, log_laguerre_l,
                                 rate_tfd_gue_exact, rate_tfd_gue_semicircle,
                                 z_gue_exact, z_gue_semicircle)

from _oracles import (hermite_h, laguerre_l, laguerre_ratio_chain,
                      log_laguerre_reference, z_from_spectrum)
from dephase_lab.exceptions import NumericalError


class TestHermite:
    def test_base_cases(self):
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(hermite_h(0, x), np.ones_like(x))
        np.testing.assert_allclose(hermite_h(1, x), 2 * x)
        np.testing.assert_allclose(hermite_h(2, x), 4 * x ** 2 - 2)

    def test_matches_scipy(self):
        x = np.linspace(-2.5, 2.5, 11)
        for l in range(8):
            np.testing.assert_allclose(hermite_h(l, x),
                                       scipy.special.eval_hermite(l, x),
                                       rtol=1e-12, atol=1e-9)

    def test_phi_orthonormal_by_quadrature(self):
        # integral of phi_k phi_l equals delta_kl; the integrand carries the
        # full exp(-x^2) weight, so 40 Gauss-Hermite nodes are exact here.
        nodes, w = gauss_hermite(40)
        for k in range(7):
            for l in range(7):
                fk = hermite_phi(k, nodes) * np.exp(0.5 * nodes ** 2)
                fl = hermite_phi(l, nodes) * np.exp(0.5 * nodes ** 2)
                val = float((w * fk * fl).sum())
                assert val == pytest.approx(1.0 if k == l else 0.0, abs=1e-12)

    def test_weighted_first_moment_identity(self):
        # integral x exp(-x^2) H_k H_l dx =
        #   sqrt(pi)/2 (k+1)! 2^(k+1) [l=k+1] + k sqrt(pi) (k-1)! 2^(k-1) [l=k-1]
        nodes, w = gauss_hermite(30)

        def lhs(k, l):
            return float((w * nodes * hermite_h(k, nodes) * hermite_h(l, nodes)).sum())

        def rhs(k, l):
            out = 0.0
            if l == k + 1:
                out += 0.5 * math.sqrt(math.pi) * math.factorial(k + 1) * 2 ** (k + 1)
            if l == k - 1:
                out += k * math.sqrt(math.pi) * math.factorial(k - 1) * 2 ** (k - 1)
            return out

        assert lhs(2, 3) == pytest.approx(rhs(2, 3), rel=1e-12)  # 24 sqrt(pi)
        assert rhs(2, 3) == pytest.approx(24 * math.sqrt(math.pi), rel=1e-15)
        for k, l in [(0, 1), (1, 2), (3, 2), (4, 5), (2, 2), (1, 3)]:
            assert lhs(k, l) == pytest.approx(rhs(k, l), rel=1e-11, abs=1e-9)

    def test_phi_large_degree_no_overflow(self):
        v = np.array([0.0, 10.0, 60.0])
        out = hermite_phi(1500, v)
        assert np.isfinite(out).all()


class TestGaussHermite:
    def test_moments(self):
        nodes, w = gauss_hermite(64)
        assert w.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert (w * nodes ** 2).sum() == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
        assert (w * nodes ** 4).sum() == pytest.approx(3 * math.sqrt(math.pi) / 4, rel=1e-12)

    def test_large_order_stays_finite(self):
        nodes, w = gauss_hermite(1024)
        assert np.isfinite(w).all() and np.isfinite(nodes).all()
        assert w.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-12)


class TestLaguerre:
    def test_base_cases(self):
        assert laguerre_l(0, 3, 1.7) == 1.0
        x = 0.4
        assert laguerre_l(1, 1, x) == pytest.approx(2.0 - x, rel=1e-14)

    def test_matches_scipy(self):
        for n in (2, 5, 9):
            for alpha in (0, 1, 3):
                for x in (-2.0, -0.3, 0.5, 4.0):
                    assert laguerre_l(n, alpha, x) == pytest.approx(
                        float(scipy.special.eval_genlaguerre(n, alpha, x)),
                        rel=1e-11)

    def test_summation_recurrence(self):
        # L_{d-1}^(1)(x) equals the sum of the first d plain Laguerre values.
        x = -0.5
        d = 5
        total = sum(laguerre_l(l, 0, x) for l in range(d))
        assert laguerre_l(d - 1, 1, x) == pytest.approx(total, rel=1e-13)

    def test_log_form_matches_plain(self):
        for n in (3, 12, 30):
            for alpha in (1, 2, 3):
                for x in (-4.0, -0.01, 0.0):
                    ref = laguerre_l(n, alpha, x)
                    assert math.exp(log_laguerre_l(n, alpha, x)) == pytest.approx(
                        ref, rel=1e-12)

    def test_log_form_rejects_positive_x(self):
        with pytest.raises(ValueError):
            log_laguerre_l(3, 1, 0.5)

    @pytest.mark.parametrize("d", [*range(1, 41), 255, 256, 1024, 4096, 16384])
    def test_ratio_chain_is_bit_identical_to_the_reference(self, d):
        # Exact equality of both ratios with the dict-based loop it
        # replaced, whose first value is the log the chain no longer returns.
        # beta = 30 and 100 renormalize from d = 1024 and 255 on, beta = 1e70
        # at every step, down to the one-step chains at d = 3 and 4.
        for beta in (0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0,
                     100.0, 1e20, 1e70):
            x = -beta * beta / 2.0
            want = laguerre_ratio_chain(d, x)
            assert all(map(math.isfinite, want)), (d, beta)
            assert _laguerre_ratio_chain(d, x) == want[1:], (d, beta)

    @pytest.mark.parametrize("x", [-5e79, -5e199])
    def test_ratio_chain_at_huge_x_against_mpmath(self, x):
        # A step multiplies by about |x|, past the fixed cap's headroom; at
        # -5e199 the degree-1 values already exceed the cap.
        with mpmath.workdps(40):
            l1 = mpmath.laguerre(15, 1, x)
            want = (float(mpmath.laguerre(14, 2, x) / l1),
                    float(mpmath.laguerre(13, 3, x) / l1))
        got = _laguerre_ratio_chain(16, x)
        assert all(map(math.isfinite, got))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("x", [-math.inf, math.nan])
    def test_ratio_chain_raises_on_a_non_finite_argument(self, x):
        with pytest.raises(NumericalError, match="finite x"):
            _laguerre_ratio_chain(16, x)

    def test_ratio_chain_rejects_positive_x_like_the_reference(self):
        for d in (1, 3, 4, 256):
            with pytest.raises(ValueError) as got:
                _laguerre_ratio_chain(d, 0.5)
            with pytest.raises(ValueError) as want:
                laguerre_ratio_chain(d, 0.5)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [*range(0, 40), 254, 1023, 16383, 20000])
    def test_log_form_is_bit_identical_at_ordinary_beta(self, n):
        # The annealing check's betas, and the x = -8 that renormalizes
        # from n of a few thousand on.
        for x in (-0.25 ** 2 / 2.0, -0.5 ** 2 / 2.0, -8.0, 0.0):
            for alpha in (0, 1, 2.5):
                assert log_laguerre_l(n, alpha, x) == log_laguerre_reference(n, alpha, x)

    @pytest.mark.parametrize("beta", [1e40, 1e100])
    def test_log_form_at_huge_beta_against_mpmath(self, beta):
        # A step multiplies by about beta^2/2, past the fixed cap's headroom.
        x = -beta * beta / 2.0
        with mpmath.workdps(40):
            log_l = mpmath.log(mpmath.laguerre(15, 1, x))
            want = float(beta * beta / 4.0 + log_l)
            assert log_laguerre_l(15, 1, x) == pytest.approx(float(log_l), rel=1e-14)
        assert z_gue_exact(beta, 16) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("x", [-math.inf, math.nan])
    def test_log_form_raises_on_a_non_finite_argument(self, x):
        with pytest.raises(NumericalError, match="finite x"):
            log_laguerre_l(15, 1, x)

    def test_z_exact_raises_where_beta_squared_overflows(self):
        with pytest.raises(NumericalError):
            z_gue_exact(1e160, 16)

    def test_log_form_huge_degree(self):
        # Would overflow unscaled: values grow like exp(2 sqrt(n y)).
        val = log_laguerre_l(20000, 1, -8.0)
        assert np.isfinite(val) and val > 500


def _bessel_quadrature(nu, x, nodes=400):
    # I_nu(x) = (1/pi) * integral_0^pi exp(x cos t) cos(nu t) dt
    t, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * math.pi * (t + 1.0)
    w = 0.5 * math.pi * w
    return float((w * np.exp(x * np.cos(t)) * np.cos(nu * t)).sum() / math.pi)


class TestBesselRatio:
    def test_small_argument_series(self):
        assert bessel_i_ratio_g(1e-6) == pytest.approx(2.5e-7, abs=1e-13)

    def test_large_argument_asymptote(self):
        x = 1e10
        assert bessel_i_ratio_g(x) == pytest.approx(1.0 - 1.5e-10, abs=1e-14)
        assert bessel_i_ratio_g(1e30) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_oracle(self):
        for x in (0.5, 2.0, 7.0, 20.0):
            ref = _bessel_quadrature(2, x) / _bessel_quadrature(1, x)
            assert bessel_i_ratio_g(x) == pytest.approx(ref, rel=1e-11)

    def test_matches_scipy_across_crossover(self):
        for x in (1.0, 10.0, 45.0, 49.9, 50.1, 60.0, 200.0, 500.0):
            ref = scipy.special.iv(2, x) / scipy.special.iv(1, x)
            assert bessel_i_ratio_g(x) == pytest.approx(ref, rel=1e-12)

    def test_tiny_argument_series_branch(self):
        # The series branch below 1e-6 joins the continued fraction smoothly
        # and stays finite down to subnormal arguments.
        lo = bessel_i_ratio_g(9.99e-7)
        hi = bessel_i_ratio_g(1.001e-6)
        assert lo < hi and (hi - lo) / hi < 2.2e-3
        assert bessel_i_ratio_g(1e-300) == pytest.approx(2.5e-301, rel=1e-12)
        assert rate_tfd_gue_semicircle(1e-300, 4.0, 1.0) == pytest.approx(8.0, rel=1e-9)

    def test_bounds_and_domain(self):
        for x in (1e-8, 1.0, 80.0, 1e6):
            g = bessel_i_ratio_g(x)
            assert 0.0 < g < 1.0
        with pytest.raises(ValueError):
            bessel_i_ratio_g(0.0)
        with pytest.raises(ValueError):
            bessel_i_ratio_g(-3.0)

    def test_log_i1(self):
        for x in (0.3, 5.0, 29.0, 31.0, 400.0):
            assert log_bessel_i1(x) == pytest.approx(
                math.log(scipy.special.iv(1, x)), rel=1e-12)


class TestPartitionFunctions:
    def test_exact_at_beta_zero(self):
        for d in (1, 2, 17, 300):
            assert math.exp(z_gue_exact(0.0, d)) == pytest.approx(float(d), rel=1e-13)

    def test_exact_d1_gaussian(self):
        for beta in (0.2, 1.0, 3.0):
            assert math.exp(z_gue_exact(beta, 1)) == pytest.approx(
                math.exp(beta ** 2 / 4), rel=1e-13)

    def test_exact_against_sampling(self):
        # 1000 GUE draws at d = 32, beta = 0.1.
        d, beta = 32, 0.1
        rng = RngStream(21, 0)
        vals = np.empty(1000)
        for i in range(1000):
            e = np.linalg.eigvalsh(_gue_matrix(d, rng.sample_generator(i)))
            vals[i] = np.exp(-beta * e).sum()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(z_gue_exact(beta, d))) <= 3 * se

    def test_semicircle_small_beta_limit(self):
        for d in (4, 1024):
            assert math.exp(z_gue_semicircle(0.0, d)) == pytest.approx(float(d))
            assert math.exp(z_gue_semicircle(1e-12, d)) == pytest.approx(float(d), rel=1e-9)

    def test_semicircle_close_to_exact(self):
        lz_e = z_gue_exact(0.05, 1024)
        lz_s = z_gue_semicircle(0.05, 1024)
        assert abs(math.expm1(lz_s - lz_e)) <= 0.01

    def test_semicircle_large_beta_log_slope(self):
        # ln Z ~ sqrt(2 d) beta - (3/2) ln beta + const at large beta.
        d = 64.0
        b1, b2 = 50.0, 100.0
        got = z_gue_semicircle(b2, d) - z_gue_semicircle(b1, d)
        expect = math.sqrt(2 * d) * (b2 - b1) - 1.5 * math.log(b2 / b1)
        assert got == pytest.approx(expect, rel=1e-3)

    def test_log_convexity_in_beta(self):
        betas = np.linspace(0.0, 4.0, 33)
        for d in (2, 7, 40):
            lz = np.array([z_gue_exact(b, d) for b in betas])
            assert (np.diff(lz, 2) >= -1e-9).all()

    def test_spectrum_partition_value(self):
        e = np.array([-1.0, 0.3, 2.1])
        lz = z_from_spectrum(e, 0.7)
        assert lz.imag == 0.0
        assert math.exp(lz.real) == pytest.approx(np.exp(-0.7 * e).sum(), rel=1e-13)
        lc = z_from_spectrum(e, 0.7, y=1.3)
        ref = np.exp((-0.7 + 1.3j) * e).sum()
        assert np.exp(lc) == pytest.approx(ref, rel=1e-12)

    def test_spectrum_partition_extreme_beta(self):
        # Max-shifted evaluation stays finite where the naive sum underflows.
        e = np.linspace(-20.0, 25.0, 16)
        lz = z_from_spectrum(e, 1000.0)
        assert math.isfinite(lz.real)
        assert lz.real == pytest.approx(1000.0 * 20.0, rel=1e-6)


def _rate_by_quadrature(beta, d, gamma, nodes=120):
    # 4 gamma var of the density rho_d(v) exp(-beta v); Gauss-Hermite handles
    # the exp(-v^2) factor inside rho_d.
    from dephase_lab.ensembles import gue_level_density
    x, w = gauss_hermite(nodes)
    f = gue_level_density(x, d) * np.exp(x ** 2 - beta * x)
    z = float((w * f).sum())
    m1 = float((w * x * f).sum()) / z
    m2 = float((w * x * x * f).sum()) / z
    return 4.0 * gamma * (m2 - m1 * m1)


class TestTfdGueRates:
    def test_exact_beta_zero_is_2gd(self):
        for d in (1, 2, 3, 17, 128):
            assert rate_tfd_gue_exact(0.0, d, 1.0) == pytest.approx(2.0 * d, rel=1e-12)

    def test_exact_matches_quadrature(self):
        for d in (2, 6):
            for beta in (0.0, 0.5, 1.5):
                ref = _rate_by_quadrature(beta, d, 1.0)
                assert rate_tfd_gue_exact(beta, d, 1.0) == pytest.approx(ref, rel=1e-8)

    def test_exact_nonnegative_grid(self):
        for d in (2, 16, 256):
            for beta in (0.0, 0.3, 1.0, 3.0, 10.0):
                assert rate_tfd_gue_exact(beta, d, 0.7) >= 0.0

    def test_semicircle_high_temperature_limit(self):
        for log2d in (10, 50):
            d = 2.0 ** log2d
            beta = beta_crossover(d) / 100.0
            r = rate_tfd_gue_semicircle(beta, d, 1.0)
            assert abs(r / (2.0 * d) - 1.0) <= 1e-3

    def test_semicircle_low_temperature_limit(self):
        for log2d in (10, 50):
            d = 2.0 ** log2d
            beta = 100.0 * beta_crossover(d)
            r = rate_tfd_gue_semicircle(beta, d, 1.0)
            assert abs(r * beta ** 2 / 6.0 - 1.0) <= 1e-2

    def test_fifty_qubits_low_t_plateau(self):
        # d = 2^50, beta = 1e-3 >> beta_c ~ 5.2e-8: rate ~ 6 gamma / beta^2.
        d = 2.0 ** 50
        assert beta_crossover(d) == pytest.approx(5.16e-8, rel=1e-2)
        r = rate_tfd_gue_semicircle(1e-3, d, 1.0)
        assert r == pytest.approx(6.0e6, rel=1e-3)

    def test_semicircle_monotone_in_beta(self):
        for d in (16.0, 2.0 ** 20):
            betas = np.geomspace(1e-6, 10.0, 60)
            vals = [rate_tfd_gue_semicircle(b, d, 1.0) for b in betas]
            assert all(b <= a + 1e-9 * abs(a) for a, b in zip(vals, vals[1:]))

    def test_exact_vs_semicircle_gap(self):
        # Small-beta agreement at every dimension; the beta = 1 gap closes
        # as the dimension grows.
        for d in (4, 16, 64, 256):
            re_ = rate_tfd_gue_exact(0.01, d, 1.0)
            rs = rate_tfd_gue_semicircle(0.01, float(d), 1.0)
            assert abs(re_ - rs) / re_ <= 0.01
        gaps = []
        for d in (4, 8, 16, 32, 64):
            re_ = rate_tfd_gue_exact(1.0, d, 1.0)
            rs = rate_tfd_gue_semicircle(1.0, float(d), 1.0)
            gaps.append(abs(re_ - rs) / re_)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("log2d", range(1, 61))
    def test_semicircle_matches_mpmath(self, log2d):
        # Both branches (continued fraction and the cancellation-free
        # asymptotic series) against 60-digit Bessel functions.
        d = 2.0 ** log2d
        for beta in (1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0):
            with mpmath.workdps(60):
                x = mpmath.sqrt(2 * mpmath.mpf(d)) * mpmath.mpf(beta)
                g = mpmath.besseli(2, x) / mpmath.besseli(1, x)
                ref = float(8 * mpmath.mpf(d) * (1 - 3 * g / x - g * g))
            got = rate_tfd_gue_semicircle(beta, d, 1.0)
            assert got == pytest.approx(ref, rel=1e-10), (log2d, beta)

    @pytest.mark.parametrize("log2d", (1, 2, 4, 8, 10, 12, 14))
    def test_laguerre_rate_matches_mpmath(self, log2d):
        # Against 4 d^2/dbeta^2 ln <Z> with 60-digit Laguerre values and
        # numerical differentiation.  The recurrence loses precision as d
        # grows: the measured worst relative errors are 7.3e-11 for
        # d <= 2^10 and 2.8e-7 at d = 2^14, so the tolerance is 1e-9 up to
        # d = 2^10 and 1e-6 above.
        d = 2 ** log2d
        tol = 1e-9 if log2d <= 10 else 1e-6
        for beta in (1e-3, 0.1, 0.3, 1.0, 3.0):
            with mpmath.workdps(60):
                def ln_z(b):
                    return b * b / 4 + mpmath.log(mpmath.laguerre(d - 1, 1, -b * b / 2))
                ref = float(4 * mpmath.diff(ln_z, mpmath.mpf(beta), 2))
            got = rate_tfd_gue_exact(beta, d, 1.0)
            assert got == pytest.approx(ref, rel=tol), (log2d, beta)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rate_tfd_gue_exact(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            rate_tfd_gue_semicircle(-1.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            rate_tfd_gue_exact(1.0, 4, 0.0)

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from dephase_lab.dynamics import gauss_hermite
from dephase_lab.ensembles import RngStream, _gue_matrix, gue_level_density, hermite_phi
from dephase_lab import specfun
from dephase_lab.specfun import (_laguerre_ratio_chain, _riccati_coefficients,
                                 bessel_i_ratio_g, beta_crossover, log_bessel_i1,
                                 log_laguerre_l, rate_tfd_gue_exact,
                                 rate_tfd_gue_semicircle, z_gue_exact, z_gue_semicircle)

from _oracles import hermite_h, laguerre_l, log_laguerre_reference, z_from_spectrum
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

    def test_values_where_exp_of_minus_half_x_squared_underflows(self):
        # 40-digit mpmath values past |x| = 38.6, where exp(-x^2/2) is 0 in
        # doubles but the density and phi_l are O(1).
        assert gue_level_density(40.0, 2048) == pytest.approx(15.900848590357588, rel=1e-12)
        assert hermite_phi(1500, 50.0) == pytest.approx(-0.084188537225305521, rel=1e-12)


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

    @pytest.mark.parametrize("n", [8, 64, 238])
    def test_matches_a_50_digit_rule(self, n):
        # Each node, Newton-refined at 50 digits, is a root of H_n, and its
        # weight is 2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x)^2).  The Newton
        # steps from n distinct nodes land on n distinct roots, so every root
        # is checked, and every weight above 1e-300 within 1e-11 relative.
        nodes, w = gauss_hermite(n)
        with mpmath.workdps(50):
            def h_pair(x):                    # H_n(x), H_{n-1}(x)
                lo, hi = mpmath.mpf(1), 2 * x
                for k in range(1, n):
                    lo, hi = hi, 2 * x * hi - 2 * k * lo
                return hi, lo
            scale = 2 ** (n - 1) * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi) / n ** 2
            roots, exact = [], []
            for x in nodes:
                r = mpmath.mpf(float(x))
                for _ in range(3):
                    hn, hm = h_pair(r)
                    r -= hn / (2 * n * hm)       # H_n' = 2 n H_{n-1}
                roots.append(r)
                exact.append(scale / h_pair(r)[1] ** 2)
            assert all(b - a > 1e-6 for a, b in zip(roots, roots[1:]))
            assert max(abs(float(x - r)) for x, r in zip(nodes, roots)) < 1e-12
            rel = [abs(float((wi - e) / e)) for wi, e in zip(w, exact) if e > 1e-300]
        assert len(rel) == n and max(rel) < 1e-11
        if n == 238:
            assert w.min() < 1e-100

    def test_the_capped_rule_integrates_even_moments(self):
        # int x^(2k) exp(-x^2) dx = Gamma(k + 1/2); the weights below the
        # double range are 0, not NaN.
        nodes, w = gauss_hermite(2048)
        assert not np.isnan(w).any() and (w == 0).any()
        for k in range(6):
            moment = (w * nodes ** (2 * k)).sum()
            assert moment == pytest.approx(math.gamma(k + 0.5), rel=1e-13)

    def test_the_eigvalsh_fallback_builds_the_same_rule(self, monkeypatch):
        from dephase_lab import ensembles
        for n in (1, 2, 64, 300):
            fast = gauss_hermite.__wrapped__(n)
            monkeypatch.setattr(ensembles, "_dsterf", lambda: None)
            dense = gauss_hermite.__wrapped__(n)
            monkeypatch.undo()
            np.testing.assert_allclose(dense[0], fast[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(dense[1], fast[1], rtol=1e-12)


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
    def test_ratio_chain_matches_mpmath(self, d):
        # Both ratios against 50-digit Laguerre values.  beta = 30 and 100
        # renormalize from d = 1024 and 255 on, beta = 1e70 at every step.
        # The measured worst relative errors are 9.3e-12 up to d = 2^10 and
        # 1.48e-9 above (f13 at d = 2^14, beta = 1e-6).  mpmath.laguerre takes
        # 2-185 s per point at d >= 4096 with beta >= 1e20, so those points
        # are left to the smaller d and the huge-x test below.
        tol = 1e-11 if d <= 1024 else 1.5e-9
        for beta in (0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0,
                     100.0, 1e20, 1e70):
            if d >= 4096 and beta >= 1e20:
                continue
            x = -beta * beta / 2.0
            with mpmath.workdps(50):
                def lag(n, alpha):
                    return mpmath.laguerre(n, alpha, x) if n >= 0 else 0
                l1 = lag(d - 1, 1)
                want = (float(lag(d - 2, 2) / l1), float(lag(d - 3, 3) / l1))
            got = _laguerre_ratio_chain(d, x)
            assert got == pytest.approx(want, rel=tol, abs=0.0), (d, beta)

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
            with pytest.raises(ValueError, match=r"^Laguerre recurrence requires x <= 0$"):
                _laguerre_ratio_chain(d, 0.5)

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
        # The power series is smooth across 1e-6 and stays finite down to
        # subnormal arguments.
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

    @pytest.mark.parametrize("x", [1e300, 1e308])
    def test_log_i1_near_the_largest_double(self, x):
        # log(2 pi x) overflowed above about 2.9e307, so 1e308 read -inf.
        with mpmath.workdps(60):
            ref = float(mpmath.log(mpmath.besseli(1, mpmath.mpf(x))))
        assert log_bessel_i1(x) == pytest.approx(ref, rel=1e-15)

    def test_subnormal_arguments(self):
        # log I_1(x) = log(x/2) to the last bit here; x/2 itself would round
        # to 0 (the smallest subnormal) or lose up to log(4/3) (its odd
        # multiples).
        tiny = 5e-324
        assert log_bessel_i1(tiny) == pytest.approx(-1075 * math.log(2.0), rel=1e-15)
        assert log_bessel_i1(3 * tiny) == pytest.approx(
            math.log(3.0) - 1075 * math.log(2.0), rel=1e-15)
        assert z_gue_semicircle(tiny, 1.0) == 0.0

    def test_ratio_matches_mpmath(self):
        # 60-digit I_2/I_1 on a log grid over [1e-300, 1e30], both sides of
        # the x = 50 crossover included; the worst error is 4.1e-16.
        xs = [10.0 ** (e / 4) for e in range(-1200, 121, 7)] + [49.9, 50.0, 50.1]
        with mpmath.workdps(60):
            for x in xs:
                ref = float(mpmath.besseli(2, x) / mpmath.besseli(1, x))
                assert bessel_i_ratio_g(x) == pytest.approx(ref, rel=1e-15), x


class TestLargeArgumentRecurrence:
    """``Y_k = 4^k y_k`` of ``y = I_1'/I_1 ~ sum_k y_k x^-k``, the one
    sequence that every semicircle form reads above ``x = 50``."""

    def test_every_halving_is_exact(self):
        # The same recurrence in exact rationals: were a halved sum odd, the
        # integer recurrence would have floored it and the two would part.
        y = [Fraction(1), Fraction(-1, 2)]
        for k in range(2, 60):
            s = sum(y[i] * y[k - i] for i in range(1, k))
            y.append(((k - 2) * y[k - 1] - s + (k == 2)) / 2)
        assert _riccati_coefficients(60) == [4 ** k * c for k, c in enumerate(y)]

    def test_leading_terms(self):
        # The bracket 3/(2x^2) - 3/(4x^3) - 9/(8x^4) over 3/(2x^2); the log
        # series' first term -3/(8x), the Hankel a_1 of I_1; and
        # g = 1 - 3/(2x) + 3/(8x^2).
        assert specfun._RATE_SERIES[:3] == (1.0, -0.5, -0.75)
        assert specfun._LOG_I1_SERIES[0] == -0.375
        assert specfun._G_SERIES[:2] == (-1.5, 0.375)


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

    @pytest.mark.parametrize("d", (1.0, 2.0, 64.0, 2.0 ** 20, 2.0 ** 50))
    def test_semicircle_matches_mpmath(self, d):
        # ln(sqrt(2 d) I_1(x)/beta) at 60 digits, for x from 1e-6 across the
        # x = 50 crossover to 400.
        for x in (1e-6, 1e-3, 0.1, 1.0, 2.0, 7.0, 20.0, 35.0, 49.9, 50.0, 50.1, 80.0, 400.0):
            beta = x / math.sqrt(2.0 * d)
            with mpmath.workdps(60):
                xm = mpmath.sqrt(2 * mpmath.mpf(d)) * mpmath.mpf(beta)
                ref = mpmath.log(mpmath.sqrt(2 * mpmath.mpf(d)) * mpmath.besseli(1, xm)
                                 / mpmath.mpf(beta))
            got = z_gue_semicircle(beta, d)
            assert got == pytest.approx(float(ref), rel=1e-15), (d, x)

    def test_semicircle_at_the_largest_power_of_two(self):
        # 0.5 log(2 d) overflowed at d = 2^1023; log x - 2 log beta does not.
        d, beta = 2.0 ** 1023, 1e-150
        with mpmath.workdps(60):
            dm, bm = mpmath.mpf(d), mpmath.mpf(beta)
            xm = mpmath.sqrt(2 * dm) * bm
            ref = float(mpmath.log(mpmath.sqrt(2 * dm) * mpmath.besseli(1, xm) / bm))
        assert z_gue_semicircle(beta, d) == pytest.approx(ref, rel=1e-15)

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

    def test_semicircle_beta_zero_is_2gd(self):
        # Bit for bit, also where 8 gamma d or 2 d would overflow.
        for d in (1.0, 3.0, 2.0 ** 50, 2.0 ** 1021, 2.0 ** 1023):
            for gamma in (0.25, 0.5) if d > 2.0 ** 1022 else (0.7, 1.0, 1.5):
                rate = rate_tfd_gue_semicircle(0.0, d, gamma)
                assert math.isfinite(rate) and rate == 2.0 * gamma * d
        assert z_gue_semicircle(0.0, 2.0 ** 1023) == math.log(2.0 ** 1023)

    @pytest.mark.parametrize("log2d", range(1, 61))
    def test_semicircle_matches_mpmath(self, log2d):
        # Both cancellation-free series (the power series to x = 50, the
        # asymptotic series beyond) against 60-digit Bessel functions.
        d = 2.0 ** log2d
        for beta in (1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0):
            with mpmath.workdps(60):
                x = mpmath.sqrt(2 * mpmath.mpf(d)) * mpmath.mpf(beta)
                g = mpmath.besseli(2, x) / mpmath.besseli(1, x)
                ref = float(8 * mpmath.mpf(d) * (1 - 3 * g / x - g * g))
            got = rate_tfd_gue_semicircle(beta, d, 1.0)
            assert got == pytest.approx(ref, rel=1e-14), (log2d, beta)

    def test_semicircle_where_8_gamma_d_overflows(self):
        # x is about 9.5e3 > 50, so the rate is 6 gamma/beta^2 times a series
        # from 1; 8 gamma d = 2^1025 would overflow, and the rate read inf.
        d, beta = 2.0 ** 1022, 1e-150
        with mpmath.workdps(60):
            dm = mpmath.mpf(d)
            x = mpmath.sqrt(2 * dm) * mpmath.mpf(beta)
            g = mpmath.besseli(2, x) / mpmath.besseli(1, x)
            ref = float(8 * dm * (1 - 3 * g / x - g * g))
        assert rate_tfd_gue_semicircle(beta, d, 1.0) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("log2d", (1, 2, 4, 8, 10, 12, 14))
    def test_laguerre_rate_matches_mpmath(self, log2d):
        # Against 4 d^2/dbeta^2 ln <Z> with 60-digit Laguerre values and
        # numerical differentiation.  The recurrence loses precision as d
        # grows: the measured worst relative errors are 1.8e-11 for
        # d <= 2^10 and 2.4e-9 at d = 2^14, so the tolerance is 1e-9 up to
        # d = 2^10 and 1e-8 above.
        d = 2 ** log2d
        tol = 1e-9 if log2d <= 10 else 1e-8
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

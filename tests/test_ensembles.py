import math

import numpy as np
import pytest

from _oracles import dense_gue_spectrum
from dephase_lab.ensembles import (EnsembleEstimate, GueSpec, RngStream,
                                   _gue_matrix, _gue_spectrum, gue_level_density,
                                   gue_trace_square_mc, haar_fourth_moment,
                                   haar_fourth_moment_exact, haar_second_moment,
                                   haar_second_moment_exact, sample_gue,
                                   sample_haar_unitary)
from dephase_lab.specfun import gauss_hermite
from dephase_lab.rates import PAULI


class TestRngStream:
    def test_bitwise_reproducible(self):
        a = sample_gue(GueSpec(6), RngStream(42, 3))
        b = sample_gue(GueSpec(6), RngStream(42, 3))
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = sample_gue(GueSpec(6), RngStream(42, 3))
        b = sample_gue(GueSpec(6), RngStream(42, 4))
        c = sample_gue(GueSpec(6), RngStream(43, 3))
        assert not (a == b).all() and not (a == c).all()

    def test_sample_substreams_independent_of_order(self):
        rng = RngStream(7, 0)
        late = rng.sample_generator(5).standard_normal(4)
        early = rng.sample_generator(0).standard_normal(4)
        again = rng.sample_generator(5).standard_normal(4)
        assert (late == again).all()
        assert not (late == early).all()


class TestGueSampling:
    def test_hermitian_exactly(self):
        m = sample_gue(GueSpec(16), RngStream(1, 0))
        assert (m == m.conj().T).all()

    def test_scalar_variance(self):
        # d = 1: weight exp(-x^2) means variance 1/2.
        rng = RngStream(2, 0)
        vals = np.array([_gue_matrix(1, rng.sample_generator(i))[0, 0].real
                         for i in range(4000)])
        second = vals ** 2
        se = second.std(ddof=1) / math.sqrt(len(vals))
        assert abs(second.mean() - 0.5) <= 3 * se

    def test_trace_square_normalization(self):
        # <tr X^2>/d^2 -> 1/2 at d = 8 over 1e4 draws.
        d = 8
        rng = RngStream(3, 0)
        vals = np.empty(10_000)
        for i in range(vals.size):
            m = _gue_matrix(d, rng.sample_generator(i))
            vals[i] = np.sum(np.abs(m) ** 2).real / d ** 2
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) <= 3 * se

    def test_eigenvalue_histogram_semicircle_d256(self):
        d = 256
        rng = RngStream(4, 0)
        evs = np.concatenate([np.linalg.eigvalsh(_gue_matrix(d, rng.sample_generator(i)))
                              for i in range(100)])
        u = evs / math.sqrt(2 * d)
        assert np.abs(u).max() <= 1.05
        hist, edges = np.histogram(u, bins=np.linspace(-1.1, 1.1, 23), density=True)
        mid = 0.5 * (edges[:-1] + edges[1:])
        semi = np.where(np.abs(mid) < 1, 2.0 / math.pi * np.sqrt(
            np.maximum(1 - mid ** 2, 0.0)), 0.0)
        l1 = np.sum(np.abs(hist - semi)) * np.diff(edges)[0]
        assert l1 <= 0.05

    def test_pooled_histogram_matches_level_density_d64(self):
        # 1e5 pooled eigenvalues at d = 64 against the exact finite-d
        # density, rescaled spectral units, bin width 0.1: L1 below 0.02.
        d = 64
        rng = RngStream(5, 0)
        n_mat = 10 ** 5 // d
        evs = np.concatenate([np.linalg.eigvalsh(_gue_matrix(d, rng.sample_generator(i)))
                              for i in range(n_mat)])
        scale = math.sqrt(2 * d)
        edges = np.arange(-1.3, 1.3001, 0.1)
        hist, _ = np.histogram(evs / scale, bins=edges, density=True)
        mid = 0.5 * (edges[:-1] + edges[1:])
        model = gue_level_density(mid * scale, d) * scale / d
        l1 = float(np.sum(np.abs(hist - model)) * 0.1)
        assert l1 <= 0.02


def _spectra(draw, d, n, rng):
    return np.array([draw(rng.sample_generator(i), d) for i in range(n)])


class TestTridiagonalSpectrum:
    """The tridiagonal beta = 2 model against the GUE law it replaces."""

    def test_trace_square_normalization_d64(self):
        # sum lambda^2 = tr X^2, whose mean is d^2/2.
        d, n = 64, 2000
        vals = (_spectra(_gue_spectrum, d, n, RngStream(8, 0)) ** 2).sum(axis=1)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - d * d / 2) <= 4 * se

    def test_pooled_level_density_d64(self):
        # Mean eigenvalue count per bin against the exact finite-d density
        # integrated over the bin; each bin's error is the spread of the
        # per-draw counts over the draws.  22 bins of width 0.1 sqrt(2d)
        # span the semicircle's support and the edge bins past it.
        d, n = 64, 2000
        spectra = _spectra(_gue_spectrum, d, n, RngStream(8, 1))
        edges = np.linspace(-1.1, 1.1, 23) * math.sqrt(2 * d)
        counts = np.array([np.histogram(s, bins=edges)[0] for s in spectra])
        x, w = np.polynomial.legendre.leggauss(32)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        nodes = mid[:, None] + half[:, None] * x[None, :]
        expected = (gue_level_density(nodes, d) * w).sum(axis=1) * half
        z = (counts.mean(axis=0) - expected) / (counts.std(axis=0, ddof=1)
                                                / math.sqrt(n))
        assert np.abs(z).max() <= 5.0

    def test_mean_largest_eigenvalue_matches_dense_route(self):
        d, n = 64, 1000
        tri = _spectra(_gue_spectrum, d, n, RngStream(8, 2))[:, -1]
        dense = _spectra(dense_gue_spectrum, d, n, RngStream(8, 3))[:, -1]
        se = math.sqrt((tri.var(ddof=1) + dense.var(ddof=1)) / n)
        assert abs(tri.mean() - dense.mean()) <= 4 * se


class TestHaarSampling:
    def test_unitarity(self):
        for d in (2, 5, 9):
            u = sample_haar_unitary(d, RngStream(6, d))
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-10

    def test_d1_unit_modulus(self):
        u = sample_haar_unitary(1, RngStream(6, 0))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_mean_conjugation_traceless(self):
        mean, se = haar_second_moment(PAULI["z"], 10_000, RngStream(7, 0))
        assert (np.abs(mean) <= 3 * np.maximum(se, 1e-12)).all()

    def test_mean_conjugation_identity_exact(self):
        mean, _ = haar_second_moment(np.eye(3, dtype=complex), 50, RngStream(7, 1))
        np.testing.assert_allclose(mean, np.eye(3), atol=1e-12)

    def test_second_moment_projector(self):
        x = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        mean, se = haar_second_moment(x, 10_000, RngStream(7, 2))
        dev = np.abs(mean - np.eye(4) / 4.0)
        assert (dev <= 3 * np.maximum(se, 1e-12)).all()

    def test_second_moment_arbitrary_x_within_4se(self):
        gen = RngStream(7, 3).generator()
        a = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
        x = (a + a.conj().T) / 2
        mean, se = haar_second_moment(x, 20_000, RngStream(7, 4))
        dev = np.abs(mean - haar_second_moment_exact(x))
        assert (dev <= 4 * np.maximum(se, 1e-12)).all()

    def test_left_invariance(self):
        # E[(F U) X (F U)^dagger] must match the same closed form for fixed F.
        x = np.diag([1.0, -1.0, 0.0]).astype(complex)
        f = sample_haar_unitary(3, RngStream(8, 0))
        rng = RngStream(8, 1)
        acc = np.zeros((3, 3), dtype=complex)
        n = 8000
        for i in range(n):
            u = f @ sample_haar_unitary(3, RngStream(8, 1 + i))
            acc += u @ x @ u.conj().T
        dev = np.abs(acc / n - haar_second_moment_exact(x))
        assert dev.max() <= 4 * 1.0 / math.sqrt(n)


class TestHaarFourthMoment:
    def test_identity_outer_exact(self):
        x2 = np.diag([0.3, -0.7, 1.1]).astype(complex)
        eye = np.eye(3, dtype=complex)
        mean, _ = haar_fourth_moment(eye, x2, eye, 50, RngStream(9, 0))
        np.testing.assert_allclose(mean, x2, atol=1e-12)

    def test_middle_identity_reduces_to_second_moment(self):
        gen = RngStream(9, 1).generator()
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        x1 = (a + a.conj().T) / 2
        b = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        x3 = (b + b.conj().T) / 2
        eye = np.eye(4, dtype=complex)
        np.testing.assert_allclose(
            haar_fourth_moment_exact(x1, eye, x3),
            haar_second_moment_exact(x1 @ x3), atol=1e-12)

    def test_random_triple_against_closed_form(self):
        gen = RngStream(9, 2).generator()
        xs = []
        for _ in range(3):
            a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
            xs.append((a + a.conj().T) / 2)
        mean, se = haar_fourth_moment(*xs, 20_000, RngStream(9, 3))
        dev = np.abs(mean - haar_fourth_moment_exact(*xs))
        assert (dev <= 4 * np.maximum(se, 1e-12)).all()

    def test_d1_rejected(self):
        one = np.eye(1, dtype=complex)
        with pytest.raises(ValueError):
            haar_fourth_moment_exact(one, one, one)


class TestLevelDensity:
    def test_d1_gaussian(self):
        v = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(gue_level_density(v, 1),
                                   np.exp(-v ** 2) / math.sqrt(math.pi),
                                   rtol=1e-12)

    def test_normalization_and_second_moment(self):
        # Quadrature: integral rho = d and integral v^2 rho = d^2/2 at d = 6.
        x, w = gauss_hermite(80)
        f = gue_level_density(x, 6) * np.exp(x ** 2)
        assert float((w * f).sum()) == pytest.approx(6.0, rel=1e-12)
        assert float((w * x * x * f).sum()) == pytest.approx(18.0, rel=1e-12)

    def test_nonnegative(self):
        v = np.linspace(-30, 30, 401)
        assert (gue_level_density(v, 120) >= 0).all()

    def test_large_d_semicircle_shape(self):
        d = 256
        v = np.linspace(-0.9, 0.9, 7) * math.sqrt(2 * d)
        semi = math.sqrt(2 * d) / math.pi * np.sqrt(1 - (v / math.sqrt(2 * d)) ** 2)
        assert np.abs(gue_level_density(v, d) / semi - 1).max() <= 0.01


class TestTraceSquareAdjudication:
    def test_mc_selects_d_over_2(self):
        # Two candidate values circulate for <(tr V)^2>: 0 (from summing the
        # connected two-point integral to -d^2/2) and d/2 (entrywise Wick).
        # The sampler decides: d/2.
        d = 8
        est = gue_trace_square_mc(d, 40_000, RngStream(10, 0))
        assert isinstance(est, EnsembleEstimate)
        assert abs(est.mean - d / 2.0) <= 4 * est.stderr
        assert abs(est.mean - 0.0) > 10 * est.stderr

    def test_connected_two_point_integral_sum(self):
        # Quadrature for sum_{k,l<d} (integral v phi_k phi_l)^2: the truncated
        # double sum equals d(d-1)/2, not d^2/2 (the l = d boundary term is
        # outside the sum range).
        from dephase_lab.specfun import hermite_phi
        d = 6
        x, w = gauss_hermite(60)
        total = 0.0
        for k in range(d):
            for l in range(d):
                fk = hermite_phi(k, x) * np.exp(0.5 * x ** 2)
                fl = hermite_phi(l, x) * np.exp(0.5 * x ** 2)
                total += float((w * x * fk * fl).sum()) ** 2
        assert total == pytest.approx(d * (d - 1) / 2.0, rel=1e-10)
        # Consistency: <(tr V)^2> = d^2/2 + 0 - d(d-1)/2 = d/2.
        assert d * d / 2.0 - total == pytest.approx(d / 2.0, rel=1e-10)

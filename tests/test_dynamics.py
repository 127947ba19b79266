import math
import os
import subprocess
import sys

import numpy as np
import pytest

from _oracles import purity_fsum, to_product_basis
from dephase_lab import _pool
from dephase_lab._cli import DEFAULT_SEED
from dephase_lab.dynamics import (_annealing_at, _purity_kernel, _tfd_purity_block,
                                  annealing_check, build_tfd,
                                  ensemble_purity_tfd, evolve_tfd,
                                  master_equation_rk4, purity_inf_tfd,
                                  purity_tfd, purity_tfd_hs, rate_tfd)
from dephase_lab.ensembles import RngStream, _gue_matrix, _gue_spectra, _gue_spectrum
from dephase_lab.exceptions import NumericalError, StepSizeError
from dephase_lab.hermitian import _gibbs_weights, purity
from dephase_lab.rates import PAULI, LindbladChannel, decoherence_rate
from dephase_lab.specfun import rate_tfd_gue_exact, z_gue_exact
from dephase_lab.trajectories import tfd_two_noise_config
from dephase_lab.validate import _ANNEALING_BETAS, _STREAMS


class TestBuildTfd:
    def test_infinite_temperature_uniform(self):
        sys = build_tfd(np.array([-1.0, 0.2, 3.0]), 0.0)
        np.testing.assert_allclose(sys.weights, np.full(3, 3 ** -0.5), rtol=1e-14)

    def test_zero_temperature_ground_state(self):
        sys = build_tfd(np.array([-2.0, 0.0, 1.0]), 500.0)
        np.testing.assert_allclose(sys.weights, [1.0, 0.0, 0.0], atol=1e-12)

    def test_two_level_weights(self):
        sys = build_tfd(np.array([0.0, 1.0]), 1.0)
        z = 1 + math.exp(-1.0)
        np.testing.assert_allclose(sys.weights ** 2,
                                   [1 / z, math.exp(-1.0) / z], rtol=1e-13)

    def test_weights_normalized(self):
        energies = np.linalg.eigvalsh(_gue_matrix(16, RngStream(40, 0).generator()))
        for beta in (0.0, 1.0, 900.0):
            sys = build_tfd(energies, beta)
            assert abs((sys.weights ** 2).sum() - 1.0) <= 1e-12

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            build_tfd(np.array([0.0, 1.0]), -0.1)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_rejected(self, beta):
        # NaN weights and, at inf, a RuntimeWarning before.
        with pytest.raises(ValueError, match="inverse temperature"):
            build_tfd(np.array([0.0, 1.0]), beta)
        with pytest.raises(ValueError, match="inverse temperature"):
            annealing_check([0.5, beta], 4, 8, RngStream(1))
        with pytest.raises(ValueError, match="inverse temperature"):
            ensemble_purity_tfd(2, [beta], 1.0, [0.0, 1.0], 4, RngStream(1))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_noise_rate_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValueError, match="noise rate"):
            build_tfd(np.array([0.0, 1.0]), 0.5, gamma)


class TestEvolveTfd:
    def test_initial_coefficients_and_purity(self):
        sys = build_tfd(np.array([0.0, 0.7, 1.9]), 0.8)
        c = evolve_tfd(sys, 0.0)
        np.testing.assert_allclose(c, np.outer(sys.weights, sys.weights), rtol=1e-13)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, rel=1e-12)
        assert np.trace(c).real == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_constant(self):
        sys = build_tfd(np.array([-1.0, 0.3, 2.0]), 0.5)
        for t in (0.1, 2.0, 50.0):
            c = evolve_tfd(sys, t)
            np.testing.assert_allclose(np.diag(c),
                                       sys.weights ** 2, rtol=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_time_must_be_finite_and_nonnegative(self, t):
        with pytest.raises(ValueError, match="time"):
            evolve_tfd(build_tfd(np.array([0.0, 1.0]), 0.3), t)

    def test_two_level_gap_decay(self):
        sys = build_tfd(np.array([0.0, 1.0]), 0.0, gamma=1.0)
        c = evolve_tfd(sys, 1.0)
        assert abs(c[0, 1]) == pytest.approx(math.exp(-1.0) / 2, rel=1e-12)

    def test_magnitudes_never_grow(self):
        sys = build_tfd(np.linalg.eigvalsh(_gue_matrix(6, RngStream(41, 0).generator())),
                        0.4)
        c0 = np.abs(evolve_tfd(sys, 0.0))
        for t in (0.05, 0.3, 4.0):
            assert (np.abs(evolve_tfd(sys, t)) <= c0 + 1e-14).all()

    def test_product_basis_embedding(self):
        sys = build_tfd(np.array([0.0, 1.0]), 0.0)
        rho = to_product_basis(evolve_tfd(sys, 0.3))
        assert rho.shape == (4, 4)
        assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)
        # Support only on the doubled-basis block.
        assert abs(rho[1, 1]) == 0.0 and abs(rho[2, 2]) == 0.0


class TestPurityTfd:
    def test_initial_value_exact(self):
        sys = build_tfd(np.array([0.0, 0.9, 1.4]), 1.2)
        assert purity_tfd(sys, 0.0) == 1.0

    def test_matches_coefficient_sum(self):
        sys = build_tfd(np.linalg.eigvalsh(_gue_matrix(8, RngStream(42, 0).generator())),
                        0.6, gamma=0.5)
        for t in (0.02, 0.4, 3.0):
            assert purity_tfd(sys, t) == pytest.approx(
                np.sum(np.abs(evolve_tfd(sys, t)) ** 2), rel=1e-12)

    def test_monotone_nonincreasing(self):
        sys = build_tfd(np.linalg.eigvalsh(_gue_matrix(8, RngStream(42, 1).generator())),
                        0.3)
        grid = np.linspace(0.0, 5.0, 101)
        p = purity_tfd(sys, grid)
        assert (np.diff(p) <= 1e-12).all()

    @pytest.mark.parametrize("d", [2, 8, 64, 1024])
    def test_matches_double_sum_reference(self, d):
        # Pair sum with factors at or below 2^-80 left at zero against the
        # full double sum, over six decades of gamma t and from infinite to
        # very low temperature.
        from _oracles import purity_double_sum
        energies = _gue_spectrum(RngStream(48, d).generator(), d)
        grid = np.array([0.0, 1e-6, 0.1, 1.0, 10.0, 1000.0])
        for beta in (0.0, 1e-3, 0.5, 3.0, 50.0):
            sys = build_tfd(energies, beta, gamma=0.8)
            p = purity_tfd(sys, grid)
            ref = np.array([purity_double_sum(sys, t) for t in grid])
            assert p[0] == 1.0
            np.testing.assert_allclose(p, ref, rtol=1e-12, atol=0.0)
            assert (np.diff(p) <= 1e-15).all()

    def test_infinite_time_plateau(self):
        energies = np.linalg.eigvalsh(_gue_matrix(8, RngStream(15, 50).generator()))
        for beta in (0.0, 0.7):
            sys = build_tfd(energies, beta)
            z = np.exp(-beta * energies).sum()
            z2 = np.exp(-2 * beta * energies).sum()
            assert purity_inf_tfd(sys) == pytest.approx(z2 / z ** 2, rel=1e-12)
            assert purity_tfd(sys, 1e3) == pytest.approx(z2 / z ** 2, rel=1e-6)
        sys0 = build_tfd(energies, 0.0)
        assert purity_inf_tfd(sys0) == pytest.approx(1 / 8, rel=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, [0.0, math.nan]])
    def test_time_must_be_finite_and_nonnegative(self, t):
        # A NaN or infinite time used to read as the t -> inf plateau.
        with pytest.raises(ValueError, match="time"):
            purity_tfd(build_tfd(np.array([0.0, 1.0]), 0.3), t)

    def test_overflowing_gamma_t_rejected(self):
        # gamma t = inf used to turn a zero gap's factor into inf * 0 = nan,
        # and the pair was dropped: [0, 0, 1] read 0.34 at t = 1e308.
        with pytest.raises(ValueError, match="gamma"):
            purity_tfd(build_tfd(np.array([0.0, 0.0, 1.0]), 0.3, gamma=2.0), 1e308)

    def test_gamma_t_near_the_largest_double(self):
        # gamma t = 1e308 is finite, but 2 gamma t gap^2 is not: no warning,
        # the degenerate pair keeps its coherence and the other pairs lose
        # theirs, in both routes.  evolve_tfd read NaN everywhere before,
        # the constant diagonal too, from -2j t = inf meeting a zero gap.
        sys = build_tfd(np.array([0.0, 0.0, 1.0]), 0.3)
        p = sys.weights ** 2
        want = (p[0] + p[1]) ** 2 + p[2] ** 2
        assert purity_tfd(sys, 1e308) == pytest.approx(want, rel=1e-15)
        c = evolve_tfd(sys, 1e308)
        assert np.diag(c).tobytes() == np.diag(evolve_tfd(sys, 0.0)).tobytes()
        assert np.sum(np.abs(c) ** 2) == pytest.approx(want, rel=1e-15)

    def test_overflowing_phase_of_a_surviving_pair_rejected(self):
        # gamma t = 1e-2 keeps the pair's modulus, but 2 t gap = 2e308 is
        # inf: the coefficient read NaN, with an "invalid value" warning.
        sys = build_tfd(np.array([0.0, 1.0]), 0.3, gamma=1e-310)
        with pytest.raises(ValueError, match="phase"):
            evolve_tfd(sys, 1e308)


class TestPurityKernel:
    """The one pair sum, offset by offset over a prefix of the offsets,
    against an exactly rounded one; it drops factors at or below 2^-80.
    At every dimension each beta's row is contracted by its own einsum,
    without BLAS."""

    GAMMA_T = np.array([0.0, 1e-6, 0.1, 0.25, 1.0, 10.0, 1000.0])
    BETAS = np.array([0.0, 1e-3, 0.5, 3.0, 50.0])

    def _probs(self, energies):
        return _gibbs_weights(energies, self.BETAS[:, None])[0] ** 2

    def _check(self, energies):
        probs = self._probs(energies)
        got = _purity_kernel(energies, probs, self.GAMMA_T)
        want = [[purity_fsum(energies, p, g) for g in self.GAMMA_T] for p in probs]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("d", [8, 64, 65, 256, 1024])
    def test_matches_the_compensated_double_sum(self, d):
        self._check(_gue_spectrum(RngStream(49, d).generator(), d))

    def test_band_takes_the_levels_in_any_order(self):
        # Shuffled levels: the smallest gap no longer grows with the offset.
        for d in (8, 200):
            energies = _gue_spectrum(RngStream(49, 7).generator(), d)
            self._check(RngStream(49, 8).generator().permutation(energies))

    @pytest.mark.parametrize("d", [1, 2, 8, 64, 65, 256])
    def test_each_row_equals_its_one_beta_call(self, d):
        # A beta's curve is summed in one order whatever the other rows.
        energies = _gue_spectrum(RngStream(49, 9).generator(), d)
        probs = self._probs(energies)
        gamma_t = np.concatenate([[0.0], np.logspace(-4, 3, 40)])
        stacked = _purity_kernel(energies, probs, gamma_t)
        for row, p in zip(stacked, probs):
            alone = _purity_kernel(energies, p[None, :], gamma_t)[0]
            assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("gamma_t", [5e-324, 1e300, 1e308])
    def test_degenerate_spectrum_stays_pure(self, gamma_t):
        # Every gap is zero, so every factor is 1 and the cut keeps every
        # offset; the prefix search divides by nothing and gamma t is
        # doubled only after the product with a gap, so neither the
        # smallest nor a huge gamma t warns or turns a factor into nan.
        probs = self._probs(np.zeros(5))
        got = _purity_kernel(np.zeros(5), probs, np.array([0.0, gamma_t]))
        np.testing.assert_allclose(got, 1.0, rtol=1e-15, atol=0.0)


class TestPurityHs:
    def test_two_level_matches_double_sum(self):
        sys = build_tfd(np.array([0.0, 1.0]), 0.4, gamma=1.0)
        assert purity_tfd_hs(sys, 0.5) == pytest.approx(purity_tfd(sys, 0.5), abs=1e-8)

    def test_infinite_temperature_long_time(self):
        sys = build_tfd(np.array([-1.0, -0.2, 0.4, 1.3]), 0.0)
        assert purity_tfd_hs(sys, 40.0) == pytest.approx(0.25, abs=1e-6)

    def test_node_doubling_converged(self):
        sys = build_tfd(np.linalg.eigvalsh(_gue_matrix(6, RngStream(43, 0).generator())),
                        0.5)
        a = purity_tfd_hs(sys, 0.8, quadrature_nodes=256)
        b = purity_tfd_hs(sys, 0.8, quadrature_nodes=512)
        assert abs(a - b) < 1e-9

    def test_t_zero_rejected(self):
        sys = build_tfd(np.array([0.0, 1.0]), 0.0)
        with pytest.raises(ValueError):
            purity_tfd_hs(sys, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_time_must_be_finite(self, t):
        sys = build_tfd(np.array([0.0, 1.0]), 0.0)
        with pytest.raises(ValueError, match="time"):
            purity_tfd_hs(sys, t, quadrature_nodes=64)

    @pytest.mark.parametrize("t", [1e5, 1e308])
    def test_a_rule_past_the_node_cap_is_refused(self, t):
        # At t = 1e5 the capped 2048-node rule read 0.406 where purity_tfd
        # reads 0.6055; at 1e308, 8 gamma t spread^2 is inf and the node
        # count raised a bare OverflowError.
        sys = build_tfd(np.array([0.0, 0.0, 1.0]), 0.3)
        with pytest.raises(ValueError, match="over 2048 quadrature nodes; use purity_tfd"):
            purity_tfd_hs(sys, t)

    @pytest.mark.parametrize("t", [1.0, 1e308])
    def test_a_zero_spread_takes_the_minimum_rule(self, t):
        # One level twice: the integrand is constant, so the 64-node rule
        # serves every t.  At t = 1e308, 8 gamma t is inf, and inf * 0 gave a
        # NaN node count that was refused as past the cap.
        sys = build_tfd(np.array([0.0, 0.0]), 0.3)
        assert purity_tfd(sys, t) == pytest.approx(1.0, rel=1e-15)
        assert purity_tfd_hs(sys, t) == purity_tfd_hs(sys, t, quadrature_nodes=64)
        assert purity_tfd_hs(sys, t) == pytest.approx(purity_tfd(sys, t), rel=1e-14)


class TestRateTfd:
    def test_symmetric_two_level(self):
        sys = build_tfd(np.array([-1.0, 1.0]), 0.0, gamma=1.0)
        assert rate_tfd(sys) == pytest.approx(4.0, rel=1e-12)

    def test_degenerate_spectrum(self):
        sys = build_tfd(np.zeros(5), 1.0)
        assert rate_tfd(sys) == pytest.approx(0.0, abs=1e-12)

    def test_matches_numerical_second_derivative(self):
        # 4 gamma d^2/dbeta^2 ln Z by central differences, h = 1e-4.
        energies = np.linalg.eigvalsh(_gue_matrix(10, RngStream(44, 0).generator()))
        gamma, beta, h = 0.7, 0.9, 1e-4

        def ln_z(b):
            return float(np.log(np.exp(-b * energies).sum()))

        num = (ln_z(beta + h) - 2 * ln_z(beta) + ln_z(beta - h)) / h ** 2
        sys = build_tfd(energies, beta, gamma)
        assert rate_tfd(sys) == pytest.approx(4 * gamma * num, rel=1e-5)

    def test_gue_ensemble_mean_near_2gd(self):
        d, n = 32, 300
        rng = RngStream(44, 1)
        vals = np.array([rate_tfd(build_tfd(
            np.linalg.eigvalsh(_gue_matrix(d, rng.sample_generator(i))), 0.0))
            for i in range(n)])
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 2.0 * d) <= 3 * se


class TestEnsemblePurity:
    @pytest.mark.parametrize("grid", [[0.0, -1.0], [0.0, math.nan], [0.0, math.inf]])
    def test_time_grid_must_be_finite_and_nonnegative(self, grid):
        # [0, -1] used to give a purity of 1.37e22, [0, nan] one of 0.394.
        with pytest.raises(ValueError, match="time"):
            ensemble_purity_tfd(2, [0.5], 1.0, grid, 4, RngStream(1))

    def test_time_zero_exact(self):
        [curve] = ensemble_purity_tfd(3, [0.0], 1.0, np.array([0.0, 0.5]), 40,
                                      RngStream(45, 0))
        assert curve.purity.mean[0] == 1.0
        assert curve.purity.stderr[0] == 0.0

    def test_temperature_ordering(self):
        grid = np.array([0.0, 1.0, 4.0])
        curves = ensemble_purity_tfd(3, [0.0, 0.1, 1.0], 1.0, grid, 120,
                                     RngStream(45, 1))
        # Larger beta decays less deeply at fixed time.
        for i in (1, 2):
            assert curves[0].purity.mean[i] < curves[1].purity.mean[i] \
                < curves[2].purity.mean[i]

    def test_deterministic_across_workers(self):
        grid = np.array([0.0, 0.7])
        betas = [0.2, 1.5]
        a = ensemble_purity_tfd(2, betas, 1.0, grid, 30, RngStream(45, 2))
        b = ensemble_purity_tfd(2, betas, 1.0, grid, 30, RngStream(45, 2),
                                workers=3)
        for ca, cb in zip(a, b):
            assert ca.purity.mean.tobytes() == cb.purity.mean.tobytes()
            assert ca.purity.stderr.tobytes() == cb.purity.stderr.tobytes()
            assert ca.rate.mean == cb.rate.mean
            assert ca.purity_inf.mean == cb.purity_inf.mean

    def test_beta_list_equals_single_beta_calls(self):
        # Every beta reads the same spectra, so a list of k betas gives the
        # k curves of k one-beta calls on the same stream, bit for bit: the
        # pair sum takes each row in one order whatever the number of rows.
        grid = np.array([0.0, 0.3, 2.0, 50.0])
        betas = [0.0, 0.4, 3.0]
        together = ensemble_purity_tfd(4, betas, 0.7, grid, 12, RngStream(45, 4))
        for beta, curve in zip(betas, together):
            [alone] = ensemble_purity_tfd(4, [beta], 0.7, grid, 12,
                                          RngStream(45, 4))
            for field in ("purity_inf", "rate"):
                a, b = getattr(curve, field), getattr(alone, field)
                assert (a.mean, a.stderr) == (b.mean, b.stderr)
            assert curve.purity.mean.tobytes() == alone.purity.mean.tobytes()
            assert curve.purity.stderr.tobytes() == alone.purity.stderr.tobytes()
            assert curve.purity.mean[0] == alone.purity.mean[0] == 1.0

    def test_rows_match_per_spectrum_reference(self):
        # The six samples are the first six spectra drawn one after another
        # from substream 0 (block 0), evaluated per beta by the reference
        # double sum.
        from _oracles import purity_double_sum
        grid = np.array([0.0, 0.5, 4.0])
        betas = [0.0, 1.0]
        rng = RngStream(45, 5)
        curves = ensemble_purity_tfd(3, betas, 1.0, grid, 6, rng)
        gen = rng.sample_generator(0)
        spectra = [_gue_spectrum(gen, 8) for _ in range(6)]
        for beta, curve in zip(betas, curves):
            ref = np.array([[purity_double_sum(build_tfd(e, beta), t) for t in grid]
                            for e in spectra])
            np.testing.assert_allclose(curve.purity.mean, ref.mean(axis=0),
                                       rtol=1e-12)

    @pytest.mark.parametrize("betas", [[0.7], [0.0, 0.4, 3.0, 1e3]])
    def test_block_rows_equal_the_single_system_functions(self, betas):
        # The block's stacked Gibbs pass gives, bit for bit, the plateau,
        # rate and purity curve of build_tfd(e, beta) for each spectrum e
        # and beta, whatever the number of betas.  The block takes gamma t,
        # purity_tfd t: gamma = 1/2 scales exactly.
        gamma_t = np.array([0.0, 0.3, 2.0, 50.0])
        rng = RngStream(45, 6)
        block = _tfd_purity_block(rng.sample_generator(0), 5, 16, betas, 0.5,
                                  gamma_t)
        gen = rng.sample_generator(0)
        assert block.shape == (5, len(betas), len(gamma_t) + 2)
        for rows in block:
            e = _gue_spectrum(gen, 16)
            for beta, row in zip(betas, rows):
                sys = build_tfd(e, beta, 0.5)
                assert row[-2] == purity_inf_tfd(sys)
                assert row[-1] == rate_tfd(sys)
                assert row[:-2].tobytes() == purity_tfd(sys, gamma_t / 0.5).tobytes()

    @pytest.mark.parametrize("betas,gamma,match", [
        ([0.5, -0.5], 1.0, "inverse temperature"), ([0.5], 0.0, "noise rate")])
    def test_bad_beta_or_gamma_rejected(self, betas, gamma, match):
        with pytest.raises(ValueError, match=match):
            ensemble_purity_tfd(3, betas, gamma, np.array([0.0, 1.0]), 4,
                                RngStream(45, 7))

    def test_plateau_value(self):
        # At beta = 0 the per-sample long-time purity is exactly 1/d; the
        # finite-time curve sits above it by the exactly computable
        # small-gap pair tail, which the measured mean must match.
        from _oracles import gue_pair_tail
        d = 8
        grid = np.array([0.0, 12.0])
        [curve] = ensemble_purity_tfd(3, [0.0], 1.0, grid, 200, RngStream(45, 3))
        assert curve.purity_inf.mean == pytest.approx(1.0 / d, rel=1e-12)
        assert curve.purity_inf.stderr == 0.0
        tail = gue_pair_tail(d, 12.0)
        assert abs(curve.purity.mean[-1] - (1.0 / d + tail)) \
            <= 3 * curve.purity.stderr[-1]

    def test_annealed_ratio_is_not_the_quenched_plateau(self):
        # <Z(2b)>/<Z(b)>^2 is not <Z(2b)/Z(b)^2>: at d = 16 the annealed
        # ratio lies many stderr above the quenched mean, and above 1 at
        # beta = 2, while the quenched plateau stays in [1/d, 1].
        d = 16
        betas = [0.5, 2.0]
        curves = ensemble_purity_tfd(4, betas, 1.0, np.array([0.0]), 4000,
                                     RngStream(45, 7))
        for beta, curve in zip(betas, curves):
            annealed = math.exp(z_gue_exact(2.0 * beta, d)
                                - 2.0 * z_gue_exact(beta, d))
            quenched = curve.purity_inf
            assert annealed - quenched.mean > 5 * quenched.stderr
            assert 1.0 / d <= quenched.mean <= 1.0


class TestAnnealing:
    def test_scalar_dimension(self):
        # d = 1: ln <Z> estimates beta^2/4; <ln Z> estimates 0.
        beta, n = 0.8, 4000
        chk = annealing_check([beta], 1, n, RngStream(46, 0))[0]
        assert chk.ln_mean_z == pytest.approx(beta ** 2 / 4, abs=0.02)
        assert abs(chk.mean_ln_z) <= 3 * chk.ln_z_stderr

    def test_jensen_direction_random_draws(self):
        gen = RngStream(46, 1).generator()
        for trial in range(100):
            d = int(gen.integers(2, 11))
            beta = float(gen.random() * 2.0)
            chk = annealing_check([beta], d, 60, RngStream(46, 100 + trial))[0]
            # Both averages come from the same draws, so <ln Z> <= ln <Z>
            # holds exactly (AM-GM) up to rounding.
            assert chk.mean_ln_z <= chk.ln_mean_z + 1e-12 * max(1.0, abs(chk.ln_mean_z))

    def test_small_dimension_high_temperature_agreement(self):
        # d = 10, 2000 draws: the annealed closed form tracks the sampled
        # mean rate to better than 2% in the high-temperature regime (the
        # approximation's own systematic error, ~1%, exceeds the Monte-Carlo
        # stderr at this sample count, so the comparison is relative).
        chk = annealing_check([0.1], 10, 2000, RngStream(46, 3))[0]
        gap = abs(chk.rate_quenched.mean - chk.rate_annealed) / chk.rate_annealed
        assert gap < 0.02

    def test_implied_rates_and_gap_shrinks_with_d(self):
        beta = 0.5
        gaps = []
        for d in (10, 20, 40):
            chk = annealing_check([beta], d, 400, RngStream(46, 2))[0]
            assert chk.rate_annealed == pytest.approx(
                rate_tfd_gue_exact(beta, d, 1.0), rel=1e-13)
            gaps.append(abs(chk.rate_quenched.mean - chk.rate_annealed)
                        / chk.rate_annealed)
        assert gaps[2] < gaps[0]

    def test_overflowing_ln_z_refused_by_beta(self):
        # ln Z = -beta E_0 + ... passes the largest double for some draws; the
        # max shift of <Z> read inf - inf and ln <Z> was NaN.
        with pytest.raises(NumericalError, match=r"ln Z is not finite at beta = 1e\+308"):
            annealing_check([0.5, 1e308], 4, 10, RngStream(1))

    @pytest.mark.parametrize("betas,gamma,match", [
        ([0.5, -0.5], 1.0, "inverse temperature"), ([0.5], 0.0, "noise rate")])
    def test_bad_beta_or_gamma_rejected(self, betas, gamma, match):
        with pytest.raises(ValueError, match=match):
            annealing_check(betas, 6, 4, RngStream(46, 5), gamma)

    def test_betas_share_one_draw_per_sample(self):
        # Every beta reads the same n spectra, and each value equals the one
        # computed from block 0's substream, draw by draw.
        betas, d, n = (0.25, 0.5, 1.0), 6, 5
        rng = RngStream(46, 4)
        checks = annealing_check(betas, d, n, rng)
        gen = rng.sample_generator(0)
        spectra = [_gue_spectrum(gen, d) for _ in range(n)]
        for beta, chk in zip(betas, checks):
            rows = []
            for energies in spectra:
                ln_z = _gibbs_weights(energies, beta)[1]
                p = build_tfd(energies, beta).weights ** 2
                mean = np.einsum("k,k->", p, energies)
                rows.append([ln_z, np.einsum("k,k->", p, (energies - mean) ** 2)])
            ln_z, var = np.array(rows).T
            assert chk.mean_ln_z == ln_z.mean()
            assert chk.rate_quenched.mean == (4.0 * var).mean()
            assert chk.rate_annealed == rate_tfd_gue_exact(beta, d, 1.0)

    @pytest.mark.parametrize("shift", [1e4, 1e8])
    @pytest.mark.parametrize("seed", [1, 2, DEFAULT_SEED])
    def test_annealed_rate_does_not_see_a_constant_shift(self, seed, shift):
        # The validate draws: d = 40, 400 spectra.  <E^2> - <E>^2 read 32.0
        # against 47.70 at beta = 0.25, shift 1e8 and seed 1.  The jackknife
        # spreads near-equal leave-one-out rates, so it also sees the rounding
        # of the shifted levels (ulp(1e8)).  The mixture centre is taken above
        # the lowest level, so it does not round at ulp(1e8) as well: up to
        # 1.6e-9 relative at 1e8 (1.2e-8 with a raw centre), so its bound there
        # is 1e-8.  The uncentred form missed it by 1e3 there and by 1e-7 at 1e4.
        spectra = _pool.gather_samples(_gue_spectra, 400,
                                       RngStream(seed, _STREAMS["annealing"]), 1, 40)
        for beta in _ANNEALING_BETAS:
            want = _annealing_at(spectra, beta, 1.0).rate_annealed_mc
            got = _annealing_at(spectra + shift, beta, 1.0).rate_annealed_mc
            assert got.mean == pytest.approx(want.mean, rel=1e-9)
            assert got.stderr == pytest.approx(want.stderr,
                                               rel=1e-9 if shift < 1e8 else 1e-8)


def _dephasing_setup(gamma=1.0):
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return plus, [LindbladChannel(gamma, PAULI["z"])]


class TestMasterEquationRk4:
    def test_unitary_preserves_purity(self):
        gen = RngStream(47, 0).generator()
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        h = (a + a.conj().T) / 2
        psi = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        rho0 = psi / np.linalg.norm(psi)
        traj = master_equation_rk4(h, [], rho0, dt=1e-3, steps=1000)
        for state in traj[::100]:
            assert purity(state) == pytest.approx(1.0, abs=1e-8)
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-8)

    def test_pure_dephasing_off_diagonal(self):
        gamma = 1.0
        rho0, channels = _dephasing_setup(gamma)
        dt, steps = 1e-3, 2000
        traj = master_equation_rk4(zero_h(2), channels, rho0, dt, steps)
        for s in (0, 500, 2000):
            t = s * dt
            assert abs(traj[s][0, 1]) == pytest.approx(
                0.5 * math.exp(-2 * gamma * t), rel=1e-6)

    def test_state_invariants_along_trajectory(self):
        gen = RngStream(47, 1).generator()
        d = 6
        a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        h = (a + a.conj().T) / 2
        b = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        v = (b + b.conj().T) / 2
        psi = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        rho0 = psi / np.linalg.norm(psi)
        dt = 0.04 / (np.abs(np.linalg.eigvalsh(h)).max()
                     + 0.3 * np.abs(np.linalg.eigvalsh(v)).max() ** 2)
        traj = master_equation_rk4(h, [LindbladChannel(0.3, v)], rho0, dt, 400)
        purities = []
        for state in traj:
            assert abs(np.trace(state).real - 1.0) <= 1e-8
            assert np.abs(state - state.conj().T).max() <= 1e-10
            assert np.linalg.eigvalsh(state).min() >= -1e-6
            purities.append(purity(state))
        assert all(b <= a + 1e-10 for a, b in zip(purities, purities[1:]))

    def test_returns_one_stacked_array(self):
        rho0, channels = _dephasing_setup()
        traj = master_equation_rk4(zero_h(2), channels, rho0, 1e-3, 10,
                                   store_every=4)
        assert traj.shape == (3, 2, 2) and traj.dtype == complex
        np.testing.assert_allclose(traj[0], np.full((2, 2), 0.5), atol=1e-15)
        full = master_equation_rk4(zero_h(2), channels, rho0, 1e-3, 10)
        np.testing.assert_array_equal(traj[1:], full[[4, 8]])

    def test_step_size_refusal(self):
        rho0, channels = _dephasing_setup(5.0)
        with pytest.raises(StepSizeError):
            master_equation_rk4(zero_h(2), channels, rho0, dt=0.5, steps=10)

    def test_matches_exact_tfd_solution_small(self):
        energies = np.linalg.eigvalsh(_gue_matrix(2, RngStream(47, 2).generator()))
        gamma = 0.8
        h0, channels, psi0 = tfd_two_noise_config(energies, 0.5, gamma)
        sys = build_tfd(energies, 0.5, gamma)
        dt = 2.5e-4
        steps = 2000
        traj = master_equation_rk4(h0, channels, psi0, dt, steps, store_every=500)
        for snap, s in zip(traj, range(0, steps + 1, 500)):
            exact = to_product_basis(evolve_tfd(sys, s * dt))
            assert np.abs(snap - exact).max() <= 1e-7

    def test_short_time_slope_matches_rate(self):
        gen = RngStream(47, 3).generator()
        for _ in range(5):
            d = int(gen.integers(2, 9))
            a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            v = (a + a.conj().T) / 2
            psi = gen.standard_normal(d) + 1j * gen.standard_normal(d)
            rho0 = psi / np.linalg.norm(psi)
            channels = [LindbladChannel(0.5, v)]
            rate = decoherence_rate(rho0, channels)
            delta = 1e-3 / rate
            traj = master_equation_rk4(zero_h(d), channels, rho0,
                                       dt=delta / 4, steps=4)
            slope = (1.0 - purity(traj[-1])) / delta
            assert slope == pytest.approx(rate, rel=0.05)


def zero_h(d):
    return np.zeros((d, d), dtype=complex)


_MOMENTS_UNDER_CORE_TYPE = """\
import ctypes, sys
import numpy as np
from numpy.linalg import _umath_linalg
from dephase_lab.dynamics import (annealing_check, build_tfd, ensemble_purity_tfd,
                                  rate_tfd)
from dephase_lab.ensembles import RngStream
from dephase_lab.rates import (LindbladChannel, build_kbody_operator,
                               decoherence_rate, rate_lmg)
from dephase_lab.specfun import KBodySpec
from dephase_lab.trajectories import TrajectoryConfig, sse_trajectory

core = getattr(ctypes.CDLL(_umath_linalg.__file__),
               'scipy_openblas_get_corename64_', None)
if core is not None:
    core.restype = ctypes.c_char_p
print(core().decode() if core else '?', file=sys.stderr)
gen = RngStream(7, 0).generator()
z = gen.standard_normal(256) + 1j * gen.standard_normal(256)
r = z.view(float)
psi = z / np.sqrt(np.einsum("j,j->", r, r))
vals = []
for chk in annealing_check((0.25, 0.5, 1.0), 40, 400, RngStream(7, 1)):
    vals += [chk.mean_ln_z, chk.ln_mean_z, chk.rate_quenched.mean,
             chk.rate_quenched.stderr, chk.rate_annealed_mc.mean,
             chk.rate_annealed_mc.stderr]
for c in ensemble_purity_tfd(6, (0.0, 0.5, 1.0), 1.0, np.linspace(0.0, 2.0, 3), 20,
                             RngStream(7, 2)):
    vals += [c.rate.mean, c.rate.stderr]
spectrum = np.sort(4.0 * gen.standard_normal(256))
vals += [rate_tfd(build_tfd(spectrum, beta)) for beta in (0.0, 0.3, 1.0)]
vals += [rate_lmg(n, 0.7, beta, 1.0) for n in (50, 1000) for beta in (0.0, 0.1)]
vals += [decoherence_rate(psi, [LindbladChannel(1.0, build_kbody_operator(
    KBodySpec(8, k, 0.7)))]) for k in (1, 3)]
traj = sse_trajectory(None, [LindbladChannel(0.5, gen.standard_normal(256))], psi,
                      TrajectoryConfig(1e-4, 20, 1), RngStream(7, 3))
print(np.array(vals).tobytes().hex(), traj.tobytes().hex())
"""


def test_moments_do_not_depend_on_the_blas_core_type():
    """Thermal, annealed, k-body and trajectory-norm results are the same bytes
    under every OpenBLAS core type: each per-row moment and dot product is an
    einsum, and BLAS runs only matrix products these results do not reach.

    Only the OpenBLAS lever is driven.  The Gibbs weights still follow numpy's
    SIMD level through ``np.exp``, so ``NPY_DISABLE_CPU_FEATURES`` could move
    these bytes.
    """
    src = os.path.dirname(os.path.dirname(_pool.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = []
    for core in (None, "Haswell", "Sandybridge", "Prescott"):
        extra = {} if core is None else {"OPENBLAS_CORETYPE": core}
        proc = subprocess.run([sys.executable, "-c", _MOMENTS_UNDER_CORE_TYPE],
                              env=dict(env, **extra), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stderr.split("\n")[0], proc.stdout))
    if runs[0][0] == "?":
        pytest.skip("this numpy's OpenBLAS does not report its core type")
    assert len({name for name, _ in runs}) > 1, [name for name, _ in runs]
    assert all(out == runs[0][1] for _, out in runs), [name for name, _ in runs]

import math

import numpy as np
import pytest

from dephase_lab.dynamics import build_tfd, master_equation_rk4, purity_tfd
from dephase_lab.ensembles import RngStream, _gue_matrix
from dephase_lab.exceptions import StepSizeError
from dephase_lab.hermitian import eig_hermitian
from dephase_lab.rates import PAULI, LindbladChannel
from dephase_lab.trajectories import (TrajectoryConfig, average_trajectories,
                                      default_dt, sse_trajectory,
                                      tfd_two_noise_config)

PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


class TestSingleTrajectory:
    def test_free_evolution_matches_propagator(self):
        # gamma = 0 reduces to the Schrodinger equation; compare against the
        # exact propagator from the eigendecomposition at t = 1.
        gen = RngStream(50, 0).generator()
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        h = (a + a.conj().T) / 2
        psi0 = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        cfg = TrajectoryConfig(dt=1e-4, steps=10_000, n_trajectories=1)
        states = sse_trajectory(h, [], psi0, cfg, RngStream(1, 0))
        spec = eig_hermitian(h)
        phases = np.exp(-1j * spec.eigenvalues * 1.0)
        exact = spec.eigenvectors @ (phases * (spec.eigenvectors.conj().T @ psi0))
        fidelity = abs(np.vdot(exact, states[-1]))
        assert fidelity >= 1.0 - 1e-4

    def test_commuting_observable_conserved(self):
        # V = sigma^z commutes with the full generator when H0 = 0, so each
        # trajectory keeps <sigma^z> exactly.
        cfg = TrajectoryConfig(dt=5e-3, steps=400, n_trajectories=1)
        psi0 = np.array([0.8, 0.6], dtype=complex)
        states = sse_trajectory(None, [LindbladChannel(1.0, PAULI["z"])],
                                psi0, cfg, RngStream(2, 0))
        z = (np.abs(states[:, 0]) ** 2 - np.abs(states[:, 1]) ** 2)
        np.testing.assert_allclose(z, z[0], atol=1e-12)

    def test_unit_norm_after_renormalization(self):
        cfg = TrajectoryConfig(dt=1e-3, steps=200, n_trajectories=1)
        states = sse_trajectory(None, [LindbladChannel(2.0, PAULI["z"])],
                                PLUS, cfg, RngStream(3, 0))
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)

    def test_norm_martingale_per_step(self):
        # Pre-renormalization norm changes stay within 1 +- 5 sqrt(dt).
        dt = 1e-3
        cfg = TrajectoryConfig(dt=dt, steps=150, n_trajectories=1, renormalize=False)
        for idx in range(20):
            states = sse_trajectory(None, [LindbladChannel(1.0, PAULI["z"])],
                                    PLUS, cfg, RngStream(4, idx))
            norms = np.linalg.norm(states, axis=1)
            steps_ratio = norms[1:] / norms[:-1]
            assert np.abs(steps_ratio - 1.0).max() <= 5.0 * math.sqrt(dt)

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_bit_identical_to_reference_loop(self, renormalize):
        # Reference: one trajectory's Euler-Maruyama loop written out, with
        # one Generator on substream 0, the terms added in this order and
        # each state divided by np.linalg.norm of it.  The batched stepper
        # must reproduce it bit for bit.
        gen = RngStream(52, 0).generator()
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        h = (a + a.conj().T) / 2
        psi0 = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        channels = [LindbladChannel(1.0, np.array([1.0, -1.0, 0.5, 2.0])),
                    LindbladChannel(0.3, h)]
        cfg = TrajectoryConfig(dt=2e-4, steps=300, n_trajectories=1,
                               renormalize=renormalize)
        stream = RngStream(53, 4)
        states = sse_trajectory(h, channels, psi0, cfg, stream)

        dw = np.random.Generator(stream.bit_generator()).normal(
            0.0, math.sqrt(cfg.dt), size=(cfg.steps, len(channels)))
        apply = lambda op, x: x * op if op.ndim == 1 else x @ op.T
        psi = psi0[None, :].copy()
        ref = [psi[0]]
        for s in range(cfg.steps):
            new = psi.copy()
            new += (-1j * cfg.dt) * apply(h, psi)
            for m, c in enumerate(channels):
                vpsi = apply(c.v, psi)
                new += (-0.5 * c.gamma * cfg.dt) * apply(c.v, vpsi)
                new += (-1j * math.sqrt(c.gamma)) * dw[s, m] * vpsi
            psi = new
            if renormalize:
                psi = psi / float(np.linalg.norm(psi))
            ref.append(psi[0])
        assert np.array_equal(states, np.array(ref))

    def test_step_size_guard(self):
        cfg = TrajectoryConfig(dt=0.1, steps=10, n_trajectories=1)
        with pytest.raises(StepSizeError):
            sse_trajectory(None, [LindbladChannel(1.0, PAULI["z"])], PLUS,
                           cfg, RngStream(5, 0))

    def test_default_dt_scale(self):
        dt = default_dt(PAULI["z"], [LindbladChannel(1.0, PAULI["z"])])
        assert dt == pytest.approx(1e-3 / 2.0)


class TestAverageTrajectories:
    def _two_trajectories(self):
        # Returns the average of two trajectories, trajectory 0 recomputed by
        # sse_trajectory on the same stream, and what the mean leaves of the
        # other: 2 rho_bar - rho_0.
        cfg = TrajectoryConfig(dt=1e-3, steps=50, n_trajectories=2)
        channels = [LindbladChannel(1.0, PAULI["z"]), LindbladChannel(0.5, PAULI["x"])]
        rng = RngStream(7)
        avg = average_trajectories(PAULI["x"], channels, PLUS, cfg, rng)
        first = sse_trajectory(PAULI["x"], channels, PLUS, cfg, rng)
        rho_0 = np.einsum("ti,tj->tij", first, first.conj())
        return avg, rho_0, 2.0 * avg.mean - rho_0

    def test_matches_single_trajectory_stream(self):
        # The mean is the mean of two pure-state outer products, one of them
        # sse_trajectory's: the remainder is a unit-trace projector, and a
        # different one, so the two trajectories differ.
        _, rho_0, rho_1 = self._two_trajectories()
        np.testing.assert_allclose(rho_1 @ rho_1, rho_1, atol=1e-12)
        np.testing.assert_allclose(np.einsum("tii->t", rho_1), 1.0, atol=1e-12)
        assert np.abs(rho_1[-1] - rho_0[-1]).max() > 1e-3

    def test_two_trajectory_purity_is_the_overlap(self):
        # For two trajectories tr(rho_bar^2) = (1 + |<a|b>|^2)/2, and the
        # U-statistic is the overlap |<a|b>|^2 itself.
        avg, rho_0, rho_1 = self._two_trajectories()
        overlap = np.einsum("tij,tji->t", rho_0, rho_1).real
        np.testing.assert_allclose(avg.purity(), 0.5 * (1.0 + overlap), atol=1e-12)
        np.testing.assert_allclose(avg.purity_unbiased(), overlap, atol=1e-12)

    def test_dephasing_against_analytic(self):
        gamma = 1.0
        n = 4000
        cfg = TrajectoryConfig(dt=0.01, steps=200, n_trajectories=n)
        avg = average_trajectories(None, [LindbladChannel(gamma, PAULI["z"])],
                                   PLUS, cfg, RngStream(8))
        target = 0.5 * np.exp(-2.0 * gamma * avg.times)
        dev = np.abs(np.abs(avg.mean[:, 0, 1]) - target).max()
        assert dev <= 3.0 / math.sqrt(n)

    def test_trace_distance_to_master_equation(self):
        gamma = 0.8
        n = 2000
        cfg = TrajectoryConfig(dt=0.01, steps=100, n_trajectories=n)
        channels = [LindbladChannel(gamma, PAULI["z"])]
        avg = average_trajectories(None, channels, PLUS, cfg, RngStream(9))
        traj = master_equation_rk4(np.zeros((2, 2), complex), channels, PLUS,
                                   cfg.dt, cfg.steps)
        worst = 0.0
        for i in (0, 25, 50, 100):
            diff = avg.mean[i] - traj[i]
            worst = max(worst, 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
        assert worst <= max(3.0 / math.sqrt(n), 10.0 * cfg.dt)

    def test_hermitian_unit_trace_and_positivity(self):
        n = 500
        cfg = TrajectoryConfig(dt=5e-3, steps=80, n_trajectories=n)
        avg = average_trajectories(None, [LindbladChannel(1.0, PAULI["z"])],
                                   PLUS, cfg, RngStream(10))
        for i in (0, 40, 80):
            m = avg.mean[i]
            assert np.abs(m - m.conj().T).max() <= 1e-12
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(m).min() >= -3.0 / math.sqrt(n)

    def test_weak_convergence_under_dt_halving(self):
        gamma = 1.0
        n = 1500
        base = TrajectoryConfig(dt=0.01, steps=50, n_trajectories=n)
        half = TrajectoryConfig(dt=0.005, steps=100, n_trajectories=n)
        a = average_trajectories(None, [LindbladChannel(gamma, PAULI["z"])],
                                 PLUS, base, RngStream(12))
        b = average_trajectories(None, [LindbladChannel(gamma, PAULI["z"])],
                                 PLUS, half, RngStream(13))
        # Same physical horizon; compare final means within combined MC noise.
        diff = np.abs(a.mean[-1] - b.mean[-1]).max()
        noise = np.hypot(a.entry_stderr[-1], b.entry_stderr[-1]).max()
        assert diff <= 3.0 * noise + 1e-12

    def test_purity_unbiased_estimator(self):
        # The plain purity of the mean is biased up by ~(1 - P)/N; the
        # U-statistic (N P - 1)/(N - 1) removes that bias.
        gamma, n = 1.0, 800
        cfg = TrajectoryConfig(dt=0.01, steps=120, n_trajectories=n)
        avg = average_trajectories(None, [LindbladChannel(gamma, PAULI["z"])],
                                   PLUS, cfg, RngStream(14))
        t = avg.times[-1]
        exact = 0.5 * (1.0 + np.exp(-4.0 * gamma * t))
        unbiased = avg.purity_unbiased()
        assert np.array_equal(unbiased, (n * avg.purity() - 1.0) / (n - 1.0))
        assert unbiased[-1] == pytest.approx(exact, abs=6.0 / n + 3.0 / math.sqrt(n) * 0.1)


class TestTfdTwoNoise:
    def test_bell_state_at_infinite_temperature(self):
        h0, channels, psi0 = tfd_two_noise_config(np.array([-1.0, 1.0]), 0.0, 1.0)
        np.testing.assert_allclose(psi0, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert channels[0].gamma == channels[1].gamma == 1.0
        np.testing.assert_allclose(h0, [-2.0, 0.0, 0.0, 2.0])

    def test_reduced_state_is_thermal(self):
        energies = np.array([-1.1, 0.0, 0.4, 2.2])
        beta = 0.8
        _, _, psi0 = tfd_two_noise_config(energies, beta, 1.0)
        d = 4
        rho_full = np.outer(psi0, psi0.conj()).reshape(d, d, d, d)
        reduced = np.einsum("ikjk->ij", rho_full)
        gibbs = np.exp(-beta * energies)
        gibbs /= gibbs.sum()
        np.testing.assert_allclose(reduced, np.diag(gibbs), atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            tfd_two_noise_config(np.zeros(100), 0.0, 1.0)

    def test_ensemble_purity_matches_exact(self):
        # Two qubits per copy; noise-averaged trajectory purity against the
        # closed-form dephasing purity, with the U-statistic debiasing.
        energies = np.linalg.eigvalsh(_gue_matrix(4, RngStream(51, 0).generator()))
        gamma, beta = 1.0, 0.0
        h0, channels, psi0 = tfd_two_noise_config(energies, beta, gamma)
        dt = 0.01 / sum(c.gamma * np.abs(np.diag(c.v)).max() ** 2 for c in channels)
        n = 800
        steps = 250
        cfg = TrajectoryConfig(dt=dt, steps=steps, n_trajectories=n)
        avg = average_trajectories(h0, channels, psi0, cfg, RngStream(15))
        sys = build_tfd(energies, beta, gamma)
        for i in (0, steps // 2, steps):
            exact = purity_tfd(sys, avg.times[i])
            assert abs(avg.purity_unbiased()[i] - exact) <= 4.0 / math.sqrt(n)

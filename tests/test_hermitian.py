import numpy as np
import pytest

from dephase_lab import (HermiticityError, DimensionMismatchError,
                         modified_covariance, purity, spectral_norm)
from dephase_lab.hermitian import _energy_dephasing_rate, _gibbs_log_weights, as_state
from dephase_lab.ensembles import RngStream, _gue_matrix
from dephase_lab.rates import PAULI, decoherence_rate


def rand_herm(d, gen):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def rand_mixed(d, gen):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rand_pure(d, gen):
    v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    return v / np.linalg.norm(v)


class TestPurity:
    def test_pure_is_one(self):
        psi = rand_pure(5, RngStream(15, 0).generator())
        assert purity(psi) == 1.0

    def test_maximally_mixed(self):
        for d in (2, 3, 8):
            assert purity(np.eye(d) / d) == pytest.approx(1.0 / d)

    def test_thermal_closed_form(self):
        # Purity of a Gibbs state equals Z(2 beta)/Z(beta)^2.
        energies = np.array([-1.3, -0.2, 0.4, 2.0])
        beta = 0.7
        z = np.exp(-beta * energies).sum()
        z2 = np.exp(-2 * beta * energies).sum()
        gibbs = np.diag(np.exp(-beta * energies) / z)
        assert purity(gibbs) == pytest.approx(z2 / z ** 2, rel=1e-12)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            as_state(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            as_state(np.diag([0.7, 0.7]).astype(complex))


class TestAsState:
    def test_vector_is_pure_and_matrix_is_mixed(self):
        psi = rand_pure(3, RngStream(14, 0).generator())
        rho = rand_mixed(3, RngStream(14, 1).generator())
        for state in (psi, rho, np.eye(3) / 3):
            got = as_state(state)
            assert got.dtype == complex and got.ndim == np.ndim(state)
            np.testing.assert_array_equal(got, state)

    @pytest.mark.parametrize("state", [
        np.diag([1.5, -0.5]),                     # unit trace, not PSD
        np.zeros((2, 3)),                         # not square
        np.eye(2)[None] / 2,                      # three axes
        np.array(1.0),                            # a scalar
    ])
    def test_rejected_shapes_and_spectra(self, state):
        with pytest.raises(ValueError):
            as_state(state)

    def test_non_hermitian_matrix_rejected(self):
        with pytest.raises(HermiticityError):
            as_state(np.array([[0.5, 0.1], [0.0, 0.5]]))

    @pytest.mark.parametrize("state", [
        np.array([np.nan, 0.0]),                  # pure
        np.array([[0.5, np.nan], [np.nan, 0.5]]),  # mixed
    ])
    def test_non_finite_entries_rejected(self, state):
        # A NaN fails every comparison, so it passed the norm, trace,
        # Hermiticity and PSD checks, and purity read 1.0 or nan.
        for call in (as_state, purity, lambda s: decoherence_rate(s, [])):
            with pytest.raises(ValueError, match="finite"):
                call(state)

    def test_entry_points_check_the_state(self):
        with pytest.raises(ValueError):
            purity(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            modified_covariance(np.array([1.0, 1.0]), PAULI["z"], PAULI["z"])


class TestModifiedCovariance:
    def test_pure_reduces_to_variance(self):
        gen = RngStream(16, 0).generator()
        psi = rand_pure(6, gen)
        x = rand_herm(6, gen)
        got = modified_covariance(psi, x, x)
        xp = x @ psi
        var = np.vdot(xp, xp).real - np.vdot(psi, xp).real ** 2
        assert got.imag == pytest.approx(0.0, abs=1e-12)
        assert got.real == pytest.approx(var, rel=1e-12)

    def test_maximally_mixed_fixed_point(self):
        assert abs(modified_covariance(np.eye(2) / 2, PAULI["z"], PAULI["z"])) <= 1e-14

    def test_brute_force_oracle(self):
        # Elementwise index sums, independent of the matmul evaluation path.
        gen = RngStream(17, 0).generator()
        d = 4
        rho = rand_mixed(d, gen)
        x, y = rand_herm(d, gen), rand_herm(d, gen)
        t1 = sum(rho[i, j] * rho[j, k] * x[k, l] * y[l, i]
                 for i in range(d) for j in range(d)
                 for k in range(d) for l in range(d))
        t2 = sum(rho[i, j] * x[j, k] * rho[k, l] * y[l, i]
                 for i in range(d) for j in range(d)
                 for k in range(d) for l in range(d))
        got = modified_covariance(rho, x, y)
        assert got == pytest.approx(t1 - t2, rel=1e-10, abs=1e-12)

    def test_diagonal_paths_match_dense(self):
        gen = RngStream(18, 0).generator()
        d = 8
        diag_x = gen.standard_normal(d)
        diag_y = gen.standard_normal(d)
        rho = rand_mixed(d, gen)
        dense = modified_covariance(rho, np.diag(diag_x), np.diag(diag_y))
        fast = modified_covariance(rho, diag_x, diag_y)
        assert fast == pytest.approx(dense, rel=1e-10, abs=1e-12)
        psi = rand_pure(d, gen)
        assert modified_covariance(psi, diag_x, diag_y) == pytest.approx(
            modified_covariance(psi, np.diag(diag_x), np.diag(diag_y)),
            rel=1e-10, abs=1e-12)

    def test_nonnegative_on_hermitian_pairs(self):
        gen = RngStream(19, 0).generator()
        for _ in range(50):
            d = int(gen.integers(2, 9))
            x = rand_herm(d, gen)
            state = (rand_pure(d, gen) if gen.random() < 0.5
                     else rand_mixed(d, gen))
            assert modified_covariance(state, x, x).real >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            modified_covariance(np.eye(2) / 2,
                                np.eye(3, dtype=complex), np.eye(3, dtype=complex))


class TestSpectralNorm:
    def test_pauli_and_identity(self):
        assert spectral_norm(PAULI["z"]) == pytest.approx(1.0)
        assert spectral_norm(np.eye(7, dtype=complex)) == pytest.approx(1.0)

    def test_pairwise_zz_sum_n3(self):
        # sum_{l<m} sigma^z_l sigma^z_m on 3 spins: diagonal enumeration over
        # the 8 configurations gives extreme value C(3,2) = 3.
        diag = []
        for b in range(8):
            s = [1 - 2 * ((b >> l) & 1) for l in range(3)]
            diag.append(s[0] * s[1] + s[0] * s[2] + s[1] * s[2])
        op = np.array(diag, dtype=float)
        assert max(abs(v) for v in diag) == 3
        assert spectral_norm(op) == pytest.approx(3.0)
        assert spectral_norm(np.diag(op)) == pytest.approx(3.0)

    def test_variance_bounded_by_norm_squared(self):
        gen = RngStream(20, 0).generator()
        for _ in range(60):
            d = int(gen.integers(2, 10))
            x = rand_herm(d, gen)
            state = (rand_pure(d, gen) if gen.random() < 0.5
                     else rand_mixed(d, gen))
            rho = np.outer(state, state.conj()) if state.ndim == 1 else state
            var = np.trace(rho @ x @ x).real - np.trace(rho @ x).real ** 2
            assert var <= spectral_norm(x) ** 2 + 1e-10


class TestGibbsStack:
    # One call over an (m, n_beta, d) stack gives, bit for bit, what the 1-D
    # calls give row by row, so the stacked callers cannot drift from the
    # single-system functions.
    def test_stack_equals_row_by_row(self):
        gen = RngStream(12, 0).generator()
        spectra = np.sort(3.0 * gen.standard_normal((4, 1, 33)), axis=-1)
        betas = np.array([0.0, 0.3, 2.5, 1e3])
        log_mult = np.log(gen.integers(1, 50, 33).astype(float))
        for mult in (None, log_mult):
            log_p, ln_z = _gibbs_log_weights(spectra, betas[:, None], mult)
            assert log_p.shape == (4, 4, 33) and ln_z.shape == (4, 4)
            p = np.exp(log_p)
            rate, m1 = _energy_dephasing_rate(p, spectra, 0.7)
            for i in range(4):
                for j, beta in enumerate(betas):
                    e = spectra[i, 0]
                    lp, lz = _gibbs_log_weights(e, float(beta), mult)
                    assert lp.tobytes() == log_p[i, j].tobytes()
                    assert lz == ln_z[i, j]
                    q = np.exp(lp)
                    assert m1[i, j] == q @ e
                    assert rate[i, j] == 4.0 * 0.7 * (q @ (e - q @ e) ** 2)

    def test_huge_beta_keeps_the_ground_state(self):
        log_p, ln_z = _gibbs_log_weights(np.array([-1.0, 0.0, 2.0]), 1e6)
        assert np.exp(log_p).tolist() == [1.0, 0.0, 0.0]
        assert ln_z == 1e6

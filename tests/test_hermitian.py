import numpy as np
import pytest

from dephase_lab import (HermiticityError, DimensionMismatchError,
                         eig_hermitian, modified_covariance, purity,
                         spectral_norm)
from dephase_lab.hermitian import as_state
from dephase_lab.ensembles import RngStream, _gue_matrix
from dephase_lab.rates import PAULI


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


class TestEig:
    def test_identity(self):
        spec = eig_hermitian(np.eye(3, dtype=complex))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_pauli_z(self):
        spec = eig_hermitian(PAULI["z"])
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_gue_residual(self):
        h = _gue_matrix(8, RngStream(11, 0).generator())
        spec = eig_hermitian(h)
        norm = np.abs(spec.eigenvalues).max()
        resid = np.linalg.norm(h @ spec.eigenvectors
                               - spec.eigenvectors * spec.eigenvalues, axis=0)
        assert resid.max() <= 1e-10 * 8 * norm
        assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_reconstruction(self):
        gen = RngStream(12, 0).generator()
        for d in (2, 5, 16):
            h = rand_herm(d, gen)
            spec = eig_hermitian(h)
            err = np.abs(spec.reconstruct() - h).max()
            assert err <= 1e-9 * np.abs(spec.eigenvalues).max()

    def test_unitarity(self):
        h = rand_herm(12, RngStream(13, 0).generator())
        spec = eig_hermitian(h)
        u = spec.eigenvectors
        assert np.abs(u.conj().T @ u - np.eye(12)).max() <= 1e-10

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(HermiticityError):
            eig_hermitian(m)

    def test_diagonal_operator(self):
        op = np.array([3.0, -1.0, 2.0])
        spec = eig_hermitian(op)
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 2.0, 3.0])
        np.testing.assert_allclose(spec.reconstruct(), np.diag(op))


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

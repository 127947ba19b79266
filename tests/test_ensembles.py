import glob
import math
import os

import numpy as np
import pytest

from _oracles import dense_gue_spectrum
from dephase_lab import ensembles
from dephase_lab.ensembles import (_OMEGA, EnsembleEstimate, RngStream,
                                   _gue_columns, _gue_matrix, _gue_spectrum,
                                   gue_level_density, gue_trace_square_mc,
                                   haar_fourth_moment, haar_fourth_moment_exact,
                                   haar_second_moment, haar_second_moment_exact,
                                   hermite_phi, sample_gue, sample_haar_unitary)
from dephase_lab.dynamics import gauss_hermite
from dephase_lab.exceptions import NumericalError
from dephase_lab.rates import PAULI


class TestRngStream:
    def test_bitwise_reproducible(self):
        a = sample_gue(6, RngStream(42, 3))
        b = sample_gue(6, RngStream(42, 3))
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = sample_gue(6, RngStream(42, 3))
        b = sample_gue(6, RngStream(42, 4))
        c = sample_gue(6, RngStream(43, 3))
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
        m = sample_gue(16, RngStream(1, 0))
        assert (m == m.conj().T).all()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_block_entries_follow_the_normals(self, d):
        # Columns on every index: V_jk = w g_jk + conj(w) g_kj with
        # w = e^{i pi/4}/2, entry by entry from the d^2 normals of each
        # matrix, in draw order.
        g = RngStream(3, 1).generator().standard_normal((40, d, d))
        v = _dense_block(RngStream(3, 1).generator(), 40, d)
        w = complex(math.sqrt(0.125), math.sqrt(0.125))
        want = np.zeros((40, d, d), dtype=complex)
        for i in range(40):
            for j in range(d):
                for l in range(d):
                    want[i, j, l] = w * g[i, j, l] + w.conjugate() * g[i, l, j]
        assert v.tobytes() == want.tobytes()
        assert (v.imag[:, range(d), range(d)] == 0).all()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_full_support_columns_are_the_block(self, d):
        # Columns on every index are the whole block w g + conj(w) g^T of
        # gen.standard_normal((m, d, d)), bit for bit.
        g = RngStream(3, 2).generator().standard_normal((30, d, d))
        v = _OMEGA * g + _OMEGA.conjugate() * g.transpose(0, 2, 1)
        cols = _gue_columns(RngStream(3, 2).generator(), 30, d, np.arange(d))
        assert cols.tobytes() == v.tobytes()

    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_full_draw_equals_the_support_layout(self, d):
        # With every column drawn, the rows of g are its columns: the
        # shortcut gives the bits of the general support bookkeeping.
        def support_layout(gen, m, cols):
            s = len(cols)
            x = gen.standard_normal((m, (2 * d - s) * s))
            col = x[:, :d * s].reshape(m, d, s)
            row = np.empty((m, s, d))
            row[:, :, cols] = col[:, cols]
            row[:, :, np.delete(np.arange(d), cols)] = x[:, d * s:].reshape(m, s, d - s)
            return _OMEGA * col + _OMEGA.conjugate() * row.transpose(0, 2, 1)
        part = np.arange(0, d, 3)
        for cols in (np.arange(d), part):
            got = _gue_columns(RngStream(3, 4).generator(), 6, d, cols)
            want = support_layout(RngStream(3, 4).generator(), 6, cols)
            assert got.tobytes() == want.tobytes()

    def test_support_columns_follow_the_law(self):
        assert _columns_law_ok(_gue_columns)

    @pytest.mark.parametrize("plant", ["complex-diagonal", "off-diagonal-variance-1/2"])
    def test_planted_columns_fail_the_law(self, plant):
        def columns(gen, m, d, cols):
            v = _gue_columns(gen, m, d, cols)
            if plant == "off-diagonal-variance-1/2":
                return np.where(_on_diagonal(d, cols), v, math.sqrt(2.0) * v)
            a, b = gen.standard_normal((2, m, len(cols)))
            v[:, cols, np.arange(len(cols))] = _OMEGA * a + _OMEGA.conjugate() * b
            return v
        assert not _columns_law_ok(columns)

    def test_scalar_variance(self):
        # d = 1: weight exp(-x^2) means variance 1/2.
        vals = _dense_block(RngStream(2, 0).generator(), 4000, 1)[:, 0, 0].real
        second = vals ** 2
        se = second.std(ddof=1) / math.sqrt(len(vals))
        assert abs(second.mean() - 0.5) <= 3 * se

    def test_trace_square_normalization(self):
        assert _trace_square_ok(_dense_block)

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
        assert _level_density_l1(_dense_block) <= 0.02

    def test_planted_off_diagonal_variance_fails_the_law_tests(self):
        # Real and imaginary off-diagonal parts of variance 1/2 instead of
        # 1/4: <tr X^2> is 15 d^2/16 at d = 8, and the spectrum spreads.
        assert not _trace_square_ok(_planted_gue_block)
        assert _level_density_l1(_planted_gue_block) > 0.2

    def test_off_diagonal_entries_are_circular(self):
        assert _circular_ok(_dense_block)

    @pytest.mark.parametrize("w", [0.5, 0.5 * np.exp(1j * math.pi / 8)],
                             ids=["real", "phase-pi-over-8"])
    def test_planted_phase_fails_circularity(self, w):
        # <V_jk^2> = 2 |w|^2 cos(2 arg w) vanishes only at arg w = pi/4
        # (mod pi/2).  The basis-state rate, 2 |w|^2 (d - 1) on average,
        # cannot see the phase; w = 1/2 is a real symmetric (GOE-like) draw.
        def block(gen, m, d):
            g = gen.standard_normal((m, d, d))
            return w * g + np.conj(w) * g.transpose(0, 2, 1)
        assert not _circular_ok(block)


def _dense_block(gen, m, d):
    """``m`` full GUE draws: the columns of every index."""
    return _gue_columns(gen, m, d, np.arange(d))


def _planted_gue_block(gen, m, d):
    """``_dense_block`` with every off-diagonal entry scaled by sqrt(2)."""
    v = _dense_block(gen, m, d)
    return np.where(np.eye(d, dtype=bool), v, math.sqrt(2.0) * v)


def _on_diagonal(d, cols) -> np.ndarray:
    """Mask of the diagonal entries ``V_kk`` among the columns ``V[:, cols]``."""
    diag = np.zeros((d, len(cols)), dtype=bool)
    diag[cols, np.arange(len(cols))] = True
    return diag


def _columns_law_ok(columns) -> bool:
    """Columns ``S = {1, 4, 5}`` of 2e4 draws at d = 7: ``Im V_kk == 0`` and
    ``V_kj == conj(V_jk)`` exactly for ``j, k`` in ``S``, and the real and
    imaginary parts of every off-diagonal entry have variance 1/4 (the
    diagonal: 1/2 and 0) within 5 standard errors, entry by entry."""
    d, n, cols = 7, 20_000, np.array([1, 4, 5])
    v = columns(RngStream(3, 4).generator(), n, d, cols)
    on_support = v[:, cols]
    if not ((np.diagonal(on_support, axis1=1, axis2=2).imag == 0).all()
            and (on_support == on_support.conj().transpose(0, 2, 1)).all()):
        return False
    diag = _on_diagonal(d, cols)
    for part, want in ((v.real, np.where(diag, 0.5, 0.25)),
                       (v.imag, np.where(diag, 0.0, 0.25))):
        sq = part ** 2
        se = sq.std(axis=0, ddof=1) / math.sqrt(n)
        if (np.abs(sq.mean(axis=0) - want) > 5 * se).any():
            return False
    return True


def _trace_square_ok(block) -> bool:
    """<tr X^2>/d^2 within 3 stderr of 1/2 at d = 8 over 1e4 draws."""
    d = 8
    v = block(RngStream(3, 0).generator(), 10_000, d)
    vals = (np.abs(v) ** 2).sum(axis=(1, 2)) / d ** 2
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    return bool(abs(vals.mean() - 0.5) <= 3 * se)


def _circular_ok(block) -> bool:
    """<V_jk^2> = 0 off the diagonal: the mean over 1e4 draws at d = 8 of
    each draw's average V_jk^2 over j < k, within 4 standard errors."""
    d = 8
    v = block(RngStream(3, 3).generator(), 10_000, d)
    j, k = np.triu_indices(d, 1)
    vals = (v[:, j, k] ** 2).mean(axis=1)
    se = math.sqrt((vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / vals.size)
    return bool(abs(vals.mean()) <= 4 * se)


def _level_density_l1(block) -> float:
    """L1 distance of about 1e5 pooled eigenvalues at d = 64 from the exact
    finite-d density, in rescaled spectral units with bin width 0.1."""
    d = 64
    gen = RngStream(5, 0).generator()
    evs = []
    for _ in range(10 ** 5 // d // 64):
        evs.append(np.linalg.eigvalsh(block(gen, 64, d)).ravel())
    scale = math.sqrt(2 * d)
    edges = np.arange(-1.3, 1.3001, 0.1)
    hist, _ = np.histogram(np.concatenate(evs) / scale, bins=edges, density=True)
    mid = 0.5 * (edges[:-1] + edges[1:])
    model = gue_level_density(mid * scale, d) * scale / d
    return float(np.sum(np.abs(hist - model)) * 0.1)


def _spectra(draw, d, n, rng):
    return np.array([draw(rng.sample_generator(i), d) for i in range(n)])


class TestTridiagonalSpectrum:
    """The tridiagonal beta = 2 model against the GUE law it replaces."""

    @pytest.mark.parametrize("d", [1, 2, 3, 40, 64, 65, 256, 1024])
    def test_dsterf_route_equals_the_eigvalsh_route(self, d, monkeypatch):
        # dsterf on the diagonal and off-diagonal, and eigvalsh of the dense
        # tridiagonal matrix (dsytrd, whose reflectors are all the identity,
        # then dsterf), give the same bits.
        if ensembles._dsterf() is None:
            pytest.skip("numpy's linalg extension exports no scipy_dsterf_64_")
        fast = _spectra(_gue_spectrum, d, 3, RngStream(9, d))
        monkeypatch.setattr(ensembles, "_dsterf", lambda: None)
        dense = _spectra(_gue_spectrum, d, 3, RngStream(9, d))
        assert fast.tobytes() == dense.tobytes()
        assert (np.diff(fast, axis=1) >= 0).all()

    @pytest.mark.parametrize("off_len", [0, 2, 4])
    def test_dsterf_refuses_a_mismatched_off_diagonal(self, off_len):
        # dsterf reads d - 1 off-diagonal entries, whatever the buffer holds.
        sterf = ensembles._dsterf()
        if sterf is None:
            pytest.skip("numpy's linalg extension exports no scipy_dsterf_64_")
        with pytest.raises(ValueError, match="one shorter"):
            sterf(np.ones(4), np.ones(off_len))

    def test_dsterf_is_found_wherever_numpy_bundles_openblas(self):
        # The lookup goes through numpy's linalg extension; a wheel that
        # ships the OpenBLAS exporting the routine must not fall back.
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas64_*"))
        if not libs:
            pytest.skip("this numpy bundles no libscipy_openblas64_")
        assert ensembles._dsterf() is not None

    def test_dsterf_failure_is_a_numerical_error(self):
        # A NaN diagonal makes dsterf report info != 0; that is reported at
        # once, not retried through eigvalsh (whose LinAlgError would read
        # as a configuration error).
        sterf = ensembles._dsterf()
        if sterf is None:
            pytest.skip("numpy's linalg extension exports no scipy_dsterf_64_")
        with pytest.raises(NumericalError, match="dsterf"):
            sterf(np.array([np.nan, 1.0, 2.0]), np.ones(2))

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
    def test_second_moment_dimension_zero_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            haar_second_moment(np.zeros((0, 0)), 4, RngStream(1))

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


def _unitarity_error(u):
    """Largest entry of ``U^dagger U - 1`` over a ``(m, d, d)`` stack."""
    gram = np.einsum("sji,sjk->sik", u.conj(), u)
    return np.abs(gram - np.eye(u.shape[-1])).max()


def _one_pass_gram_schmidt(z):
    """Q of one ``(d, d)`` matrix by a single classical Gram-Schmidt pass."""
    q = np.zeros_like(z)
    for j in range(z.shape[1]):
        v = z[:, j] - q[:, :j] @ (q[:, :j].conj().T @ z[:, j])
        q[:, j] = v / np.linalg.norm(v)
    return q


class TestGramSchmidtRoute:
    def test_route_switches_to_lapack_above_d4(self, monkeypatch):
        # The Gram-Schmidt route calls no QR, and its einsum products are
        # sample-last in memory; the LAPACK route's `@` products are C-ordered.
        assert ensembles._GS_MAX_DIM == 4
        gen = RngStream(3, 0).generator()
        for d, sample_last in ((4, True), (5, False)):
            x = np.eye(d, dtype=complex)
            for rows in (ensembles._haar_moment_block(gen, 2, x),
                         ensembles._haar_moment_block(gen, 2, x, x, x)):
                assert (rows.strides[0] == rows.itemsize) == sample_last, d

        def no_qr(*args, **kwargs):
            raise AssertionError("LAPACK QR was called")
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        assert ensembles._haar_block(gen, 2, 4).shape == (2, 4, 4)
        with pytest.raises(AssertionError, match="LAPACK QR"):
            ensembles._haar_block(gen, 2, 5)

    def test_unitary_to_working_precision_with_a_planted_near_singular_draw(self):
        # Draw 0 has two columns parallel to 1e-10 (condition number about
        # 1e10): one pass leaves them far from orthogonal, the second pass
        # must restore them.
        g = RngStream(3, 1).generator().standard_normal((100_000, 2, 3, 3))
        g[0, :, :, 1] = g[0, :, :, 0] + 1e-10 * g[0, :, :, 1]
        one_pass = _one_pass_gram_schmidt(g[0, 0] + 1j * g[0, 1])
        assert _unitarity_error(one_pass[None]) > 1e-8
        u = np.moveaxis(ensembles._gram_schmidt(g), -1, 0)
        assert _unitarity_error(u[:1]) <= 1e-13
        assert _unitarity_error(u) <= 1e-13


class TestHaarFourthMoment:
    def test_dimension_zero_rejected(self):
        x = np.zeros((0, 0))
        with pytest.raises(ValueError, match="dimension"):
            haar_fourth_moment(x, x, x, 4, RngStream(1))

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
    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            gue_trace_square_mc(0, 10, RngStream(1))

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

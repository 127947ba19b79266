import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from _oracles import build_tbre_hamiltonian, gue_rates_triangles
from dephase_lab import _pool, rates
from dephase_lab.ensembles import RngStream, _gue_columns, _gue_matrix
from dephase_lab.dynamics import build_tfd, master_equation_rk4, rate_tfd
from dephase_lab.hermitian import modified_covariance, spectral_norm
from dephase_lab.rates import (LindbladChannel, PAULI,
                               build_kbody_operator, build_tbre_operator,
                               decoherence_rate, lmg_sector_spectrum, rate_gue_mc,
                               rate_lmg, tbre_rate_and_bound)
from dephase_lab.specfun import (KBodySpec, bessel_i_ratio_g, beta_crossover,
                                 calibrate_epsilon, crossover_min_n, log_bessel_i1,
                                 rate_gue_haar, rate_gue_wick, rate_kbody_bound,
                                 rate_tfd_gue_exact, rate_tfd_gue_semicircle,
                                 z_gue_semicircle)
from dephase_lab.trajectories import TrajectoryConfig


def rand_herm(d, gen):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def rand_pure(d, gen):
    v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    return v / np.linalg.norm(v)


def support_normals(rng, n, d, cols, gen):
    """Normals ``g``, ``(n, d, d)``, of the ``n`` GUE channels that the rate blocks
    draw on ``rng`` for a pure state supported on ``cols``: the rows and columns
    ``cols`` as the blocks draw them (the columns, then the rest of their rows),
    every other entry from ``gen``."""
    s, rest = len(cols), np.delete(np.arange(d), cols)
    x = np.concatenate([rng.sample_generator(b).standard_normal(
        (min(_pool._BLOCK, n - lo), (2 * d - s) * s))
        for b, lo in enumerate(range(0, n, _pool._BLOCK))])
    g = gen.standard_normal((n, d, d))
    g[:, :, cols] = x[:, :d * s].reshape(n, d, s)
    g[:, cols[:, None], rest] = x[:, d * s:].reshape(n, s, d - s)
    return g


class FixedNormals:
    """Stands in for a generator whose next ``standard_normal`` draw is ``g``."""

    def __init__(self, g):
        self.g = g

    def standard_normal(self, shape):
        assert shape == self.g.shape
        return self.g.copy()


class TestDecoherenceRate:
    def test_pointer_state_is_dephasing_free(self):
        # An eigenstate of every channel operator does not decohere.
        gen = RngStream(30, 0).generator()
        h = rand_herm(5, gen)
        vals, vecs = np.linalg.eigh(h)
        psi = vecs[:, 2]
        channels = [LindbladChannel(0.7, h), LindbladChannel(0.3, h @ h)]
        assert abs(decoherence_rate(psi, channels)) <= 1e-10

    def test_maximally_mixed_fixed_point(self):
        gen = RngStream(30, 1).generator()
        for d in (2, 5, 16):
            channels = [LindbladChannel(float(gen.random() + 0.1), rand_herm(d, gen))
                        for _ in range(3)]
            val = decoherence_rate(np.eye(d) / d, channels)
            assert abs(val) <= 1e-12

    def test_plus_state_under_sigma_z(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        gamma = 0.8
        assert decoherence_rate(plus, [LindbladChannel(gamma, PAULI["z"])]) \
            == pytest.approx(2 * gamma, rel=1e-12)

    def test_empty_channels(self):
        assert decoherence_rate(np.eye(2) / 2, []) == 0.0

    def test_linearity_and_quadratic_scaling(self):
        gen = RngStream(30, 2).generator()
        psi = rand_pure(6, gen)
        v = rand_herm(6, gen)
        base = decoherence_rate(psi, [LindbladChannel(1.0, v)])
        assert decoherence_rate(psi, [LindbladChannel(2.5, v)]) \
            == pytest.approx(2.5 * base, rel=1e-12)
        assert decoherence_rate(psi, [LindbladChannel(1.0, 3.0 * v)]) \
            == pytest.approx(9.0 * base, rel=1e-12)
        two = decoherence_rate(psi, [LindbladChannel(1.0, v),
                                     LindbladChannel(0.5, v)])
        assert two == pytest.approx(1.5 * base, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        from dephase_lab.exceptions import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            decoherence_rate(np.eye(2) / 2,
                             [LindbladChannel(1.0, np.eye(3, dtype=complex))])
        with pytest.raises(DimensionMismatchError):
            rate_gue_mc(np.eye(2) / 2, 1.0, 4, 10,
                        RngStream(0, 0))

    def test_channel_shape_checked(self):
        # An operator is a diagonal vector or a square matrix, nothing else.
        for bad in (np.ones((2, 3)), np.ones((2, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError):
                LindbladChannel(1.0, bad)
        assert LindbladChannel(1.0, [1.0, -1.0]).v.ndim == 1
        assert LindbladChannel(1.0, PAULI["z"]).v.shape == (2, 2)

    def test_diagonal_vector_channel_matches_dense(self):
        # A 1-D channel is the diagonal of an operator, on pure and mixed states.
        gen = RngStream(30, 4).generator()
        for d in (2, 5, 16):
            diag = gen.standard_normal(d)
            for state in (rand_pure(d, gen), _random_mixed(d, gen)):
                fast = decoherence_rate(state, [LindbladChannel(0.7, diag)])
                dense = decoherence_rate(state, [LindbladChannel(0.7, np.diag(diag))])
                assert fast == pytest.approx(dense, rel=1e-12, abs=1e-14)

    def test_nonnegative_random_instances(self):
        gen = RngStream(30, 3).generator()
        for _ in range(1000):
            d = int(gen.integers(2, 17))
            state = (rand_pure(d, gen) if gen.random() < 0.5 else
                     _random_mixed(d, gen))
            channels = [LindbladChannel(float(gen.random()), rand_herm(d, gen))]
            assert decoherence_rate(state, channels) >= -1e-10

    def test_constant_shift_dephases_nothing(self):
        # V -> V + c 1 leaves every rate unchanged; a one-pass <V^2> - <V>^2
        # would cancel to 0 or 8 (true 0.5) at c = 1e8.
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rho = np.array([[0.7, 0.2], [0.2, 0.3]])
        x = np.array([[1.0, 0.3], [0.3, -2.0]])
        y = np.array([[0.5, 1j], [-1j, 2.0]])

        def values(c):
            v = np.array([c, c + 1.0])
            out = [decoherence_rate(s, [LindbladChannel(1.0, op)])
                   for s in (psi, rho) for op in (v, np.diag(v))]
            shift = c * np.eye(2)
            cov = modified_covariance(rho, x + shift, y + shift)
            return out + [cov.real, cov.imag, rate_tfd(build_tfd(v, 0.0))]

        base = values(0.0)
        assert base[0] == pytest.approx(0.5) and base[2] == pytest.approx(4.0 / 33.0)
        assert base[-1] == pytest.approx(1.0)
        np.testing.assert_allclose(values(1e8), base, rtol=0.0, atol=1e-6)


def _random_mixed(d, gen):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestGueClosedForms:
    def test_haar_form_values(self):
        gamma = 0.9
        assert rate_gue_haar(2, gamma) == pytest.approx(4 * gamma / 3)
        assert rate_gue_haar(1, gamma) == pytest.approx(gamma / 2)
        # d = 2^n for large n: approximately Gamma * 2^n.
        n = 30
        assert rate_gue_haar(2 ** n, gamma) == pytest.approx(gamma * 2 ** n, rel=1e-8)

    def test_wick_form_values(self):
        gamma = 1.3
        assert rate_gue_wick(4, gamma) == pytest.approx(3 * gamma)
        assert rate_gue_wick(4, gamma, purity0=0.25) == pytest.approx(0.0, abs=1e-12)
        assert rate_gue_wick(8, gamma, purity0=0.5) == pytest.approx(6 * gamma)

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_haar_form_finite_where_gamma_d_overflows(self, d):
        # Gamma d overflows, Gamma d^2/(d+1) does not.
        gamma = 1.79e308 / (d / (1.0 + 1.0 / d)) / (1.0 + 1e-15)
        assert math.isinf(gamma * d)
        assert rate_gue_haar(d, gamma) == pytest.approx(
            gamma * (d / (d + 1.0)) * d, rel=1e-15)

    def test_forms_differ_by_gamma_over_dplus1(self):
        for d in (2, 7, 64):
            assert rate_gue_haar(d, 1.0) - rate_gue_wick(d, 1.0) \
                == pytest.approx(1.0 / (d + 1), rel=1e-12)


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda x: LindbladChannel(x, np.array([1.0, -1.0])),
    lambda x: rate_gue_mc(np.array([1.0, 0.0]), x, 2, 4, RngStream(1)),
    lambda x: master_equation_rk4(np.zeros((2, 2)), [], np.array([1.0, 0.0]), x, 2),
    lambda x: KBodySpec(3, 1, x),
    lambda x: rate_tfd_gue_exact(0.5, 4, x),
    lambda x: rate_tfd_gue_semicircle(0.5, 4, x),
    lambda x: crossover_min_n(1, x),
    lambda x: TrajectoryConfig(dt=x, steps=2, n_trajectories=2),
    lambda x: rate_gue_haar(4, x),
    lambda x: rate_gue_wick(4, x),
    lambda x: rate_kbody_bound(KBodySpec(3, 1, 1.0), x),
    lambda x: rate_tfd_gue_exact(x, 4, 1.0),
    lambda x: rate_tfd_gue_semicircle(x, 4, 1.0),
    lambda x: rate_tfd_gue_semicircle(0.5, x, 1.0),
    lambda x: z_gue_semicircle(x, 4),
    lambda x: beta_crossover(x),
    lambda x: calibrate_epsilon(1, 1, x),
    lambda x: bessel_i_ratio_g(x),
    lambda x: log_bessel_i1(x),
    lambda x: rate_lmg(5, x, 0.5, 1.0),
    lambda x: rate_lmg(5, 1.0, x, 1.0),
    lambda x: rate_lmg(5, 1.0, 0.5, x),
], ids=["channel", "rate_gue_mc", "rk4_dt", "kbody_epsilon", "rate_exact",
        "rate_semicircle", "crossover_epsilon_sq", "trajectory_dt",
        "haar_gamma", "wick_gamma", "kbody_gamma", "rate_exact_beta",
        "rate_semicircle_beta", "rate_semicircle_dim", "z_semicircle_beta",
        "beta_crossover_dim", "calibrate_gamma", "bessel_ratio_x",
        "log_bessel_i1_x", "lmg_epsilon", "lmg_beta", "lmg_gamma"])
def test_non_finite_rates_and_steps_rejected(call, x):
    # A NaN fails both x < 0 and x <= 0, so a guard in that form let it
    # through to a nan result, a None or a later NumericalError.
    with pytest.raises(ValueError, match="finite"):
        call(x)


@pytest.mark.parametrize("call", [
    lambda: rate_gue_haar(4, -1.0),
    lambda: rate_gue_wick(4, -1.0),
    lambda: rate_kbody_bound(KBodySpec(3, 1, 1.0), -1.0),
    lambda: rate_lmg(5, 1.0, 0.5, -1.0),
    lambda: rate_lmg(5, 1.0, -0.5, 1.0),
    lambda: calibrate_epsilon(1, 1, -1.0),
    lambda: rate_tfd_gue_exact(-1.0, 4, 1.0),
], ids=["haar_gamma", "wick_gamma", "kbody_gamma", "lmg_gamma", "lmg_beta",
        "calibrate_gamma", "rate_exact_beta"])
def test_negative_rates_and_temperatures_rejected(call):
    # Each returned a number before: rate_gue_haar(4, -1) read -3.2 and
    # rate_tfd_gue_exact(-1, 4, 1) read 4.05.
    with pytest.raises(ValueError, match="must be nonnegative"):
        call()


class TestRateGueMc:
    def test_negative_rate_rejected_like_a_channel(self):
        psi = np.eye(2, dtype=complex)[:, 0]
        with pytest.raises(ValueError, match="channel rate must be nonnegative"):
            rate_gue_mc(psi, -1.0, 2, 4, RngStream(1))
        with pytest.raises(ValueError, match="channel rate must be nonnegative"):
            LindbladChannel(-1.0, psi)

    def test_deterministic_and_worker_independent(self):
        psi = np.eye(4, dtype=complex)[:, 0]
        a = rate_gue_mc(psi, 1.0, 4, 300, RngStream(31, 0))
        b = rate_gue_mc(psi, 1.0, 4, 300, RngStream(31, 0), workers=2)
        assert a.mean == b.mean and a.stderr == b.stderr

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_samples_are_the_rates_of_the_dense_draws(self, kind):
        # The stacked real products (pure) and stacked traces (mixed) give
        # decoherence_rate of each GUE matrix the blocks draw, in order.  The
        # pure state is dense, so its support draw is the dense draw.
        d, n = 5, _pool._BLOCK + 40
        gen = np.random.default_rng(3)
        a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        if kind == "pure":
            state = a[0] / np.linalg.norm(a[0])
        else:
            state = a @ a.conj().T / np.trace(a @ a.conj().T).real
        rng = RngStream(31, 5)
        got = _pool.gather_samples(rates._rate_gue_block, n, rng, 1, d, 0.7, state)
        vs = np.concatenate([_gue_columns(rng.sample_generator(b), m, d,
                                          np.arange(d))
                             for b, m in ((0, _pool._BLOCK), (1, 40))])
        want = [decoherence_rate(state, [LindbladChannel(0.7, v)]) for v in vs]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
    def test_basis_state_rates_match_the_triangle_construction(self, d):
        # For e_0, |V_j0|^2 = (g_j0^2 + g_0j^2)/4 in both constructions, so
        # the triangle construction of the normals the blocks draw (row and
        # column 0, the rest at random) gives the same rates up to rounding.
        psi = np.eye(d, dtype=complex)[0]
        rng = RngStream(31, 6)
        got = _pool.gather_samples(rates._rate_gue_block, 300, rng, 1, d, 0.7, psi)
        g = support_normals(rng, 300, d, np.array([0]), np.random.default_rng(d))
        want = gue_rates_triangles(FixedNormals(g), 300, d, 0.7, psi)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
    def test_pure_rates_read_only_the_support_draws(self, d):
        # Rebuild each V from the normals the blocks draw for the support S
        # of psi, with two different random fillings of every entry outside
        # the rows and columns of S: decoherence_rate of either equals the
        # block's rate.
        n = _pool._BLOCK + 40
        gen = np.random.default_rng(d)
        cat = np.zeros(d, dtype=complex)
        cat[0] = cat[-1] = 1.0
        dense = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        w = complex(math.sqrt(0.125), math.sqrt(0.125))
        for state in (np.eye(d, dtype=complex)[0], np.eye(d, dtype=complex)[-1],
                      cat / np.linalg.norm(cat), dense / np.linalg.norm(dense)):
            rng = RngStream(31, 5)
            got = _pool.gather_samples(rates._rate_gue_block, n, rng, 1, d, 0.7, state)
            for _ in range(2):
                g = support_normals(rng, n, d, np.flatnonzero(state), gen)
                vs = w * g + w.conjugate() * g.transpose(0, 2, 1)
                want = [decoherence_rate(state, [LindbladChannel(0.7, v)]) for v in vs]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_non_basis_state_mean_matches_the_triangle_construction(self):
        # Other states see other entries of the same normals: the two
        # constructions agree only in law.
        d, n = 4, 4000
        psi = rand_pure(d, RngStream(31, 7).generator())
        rng = RngStream(31, 8)
        a = _pool.gather_samples(rates._rate_gue_block, n, rng, 1, d, 1.0, psi)
        b = _pool.gather_samples(gue_rates_triangles, n, rng, 1, d, 1.0, psi)
        assert not np.allclose(a, b)
        combined = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / n)
        assert abs(a.mean() - b.mean()) <= 4 * combined

    def test_small_d_adjudication(self):
        # d = 2: the Wick value lies inside 3 stderr, the other form far out.
        psi = np.array([1.0, 0.0], dtype=complex)
        est = rate_gue_mc(psi, 1.0, 2, 4000, RngStream(31, 1))
        assert abs(est.mean - rate_gue_wick(2, 1.0)) <= 3 * est.stderr
        assert abs(est.mean - rate_gue_haar(2, 1.0)) > 3 * est.stderr

    def test_maximally_mixed_gives_zero(self):
        est = rate_gue_mc(np.eye(4) / 4, 1.0, 4, 500,
                          RngStream(31, 2))
        assert abs(est.mean) <= max(3 * est.stderr, 1e-12)
        assert abs(rate_gue_wick(4, 1.0, purity0=0.25)) == 0.0

    def test_state_independence_two_pure_states(self):
        d = 2
        e1 = np.eye(d, dtype=complex)[:, 0]
        cat = np.zeros(d, dtype=complex)
        cat[0] = cat[-1] = 1 / math.sqrt(2)
        a = rate_gue_mc(e1, 1.0, d, 4000, RngStream(31, 3))
        b = rate_gue_mc(cat, 1.0, d, 4000, RngStream(31, 4))
        combined = math.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) <= 3 * combined


class TestKBodyOperator:
    def test_two_body_two_qubits(self):
        op = build_kbody_operator(KBodySpec(2, 2, 1.0))
        np.testing.assert_allclose(op, [1.0, -1.0, -1.0, 1.0])

    def test_all_up_entry_counts_subsets(self):
        op = build_kbody_operator(KBodySpec(4, 2, 1.0))
        assert op[0] == pytest.approx(6.0)  # C(4, 2)

    def test_brute_force_oracle(self):
        # Direct subset enumeration for every configuration, n <= 5.
        for n, k, eps in [(3, 1, 1.0), (4, 2, 0.5), (5, 3, 2.0)]:
            op = build_kbody_operator(KBodySpec(n, k, eps))
            for b in range(1 << n):
                s = [1.0 - 2.0 * ((b >> l) & 1) for l in range(n)]
                want = eps * sum(np.prod([s[l] for l in subset])
                                 for subset in combinations(range(n), k))
                assert op[b] == pytest.approx(want, rel=1e-12)

    def test_spectral_norm_is_eps_times_binomial(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                spec = KBodySpec(n, k, 0.7)
                op = build_kbody_operator(spec)
                assert spectral_norm(op) == pytest.approx(spec.norm, rel=1e-12)

    def test_rates_keep_the_diagonal_arithmetic(self):
        # The vector route evaluates the centred O(d) / O(d^2) diagonal
        # formulas, bit for bit, and agrees with the dense np.diag route to
        # rounding.
        gen = RngStream(30, 5).generator()
        gamma = 0.6
        for n in range(1, 6):
            for k in range(1, n + 1):
                x = build_kbody_operator(KBodySpec(n, k, 0.9))
                ch = [LindbladChannel(gamma, x)]
                psi = rand_pure(1 << n, gen)
                u = psi * x - np.vdot(psi, psi * x) * psi     # (X - <X>) psi
                assert decoherence_rate(psi, ch) == 2.0 * (gamma * np.vdot(u, u).real)
                mixed = _random_mixed(1 << n, gen)
                w = np.abs(mixed) ** 2
                cov = 0.5 * (w * (x[:, None] - x) * (x[:, None] - x)).sum()
                want = 2.0 * (gamma * cov) / np.sum(w, axis=(-2, -1))
                assert decoherence_rate(mixed, ch) == want
                for state in (psi, mixed):
                    dense = decoherence_rate(state, [LindbladChannel(gamma, np.diag(x))])
                    assert decoherence_rate(state, ch) == pytest.approx(dense, rel=1e-13)

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            KBodySpec(2, 3, 1.0)

    def test_spec_is_an_immutable_tuple_with_unit_default_amplitude(self):
        spec = KBodySpec(5, 2)
        assert spec == (5, 2, 1.0) and spec.epsilon == 1.0 and spec.norm == 10.0
        with pytest.raises(AttributeError):
            spec.k = 3
        with pytest.raises(ValueError, match="epsilon must be positive"):
            KBodySpec(5, 2, 0.0)
        with pytest.raises(ValueError, match="locality"):
            KBodySpec(5, 0)


class TestKBodyBoundsAndCalibration:
    def test_plug_in_values(self):
        spec = KBodySpec(4, 2, 1.0)
        assert rate_kbody_bound(spec, 1.0, "approx") == pytest.approx(128.0)
        assert rate_kbody_bound(spec, 1.0, "exact-binomial") == pytest.approx(72.0)

    def test_plus_state_rate_equals_2geps2_binomial(self):
        gamma = 1.1
        for n in range(2, 6):
            for k in range(1, n + 1):
                spec = KBodySpec(n, k, 0.8)
                plus = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
                rate = decoherence_rate(plus, [
                    LindbladChannel(gamma, build_kbody_operator(spec))])
                expect = 2 * gamma * spec.epsilon ** 2 * math.comb(n, k)
                assert rate == pytest.approx(expect, abs=1e-10 * max(1, expect))
                assert rate <= rate_kbody_bound(spec, gamma, "exact-binomial") + 1e-9
                assert rate <= rate_kbody_bound(spec, gamma, "approx") + 1e-9

    def test_approx_bound_where_the_direct_product_overflows(self):
        # 2 eps^2 n^(2k) passes the largest double before the division by
        # (k!)^2 brings it back; the bound itself is finite up to there.
        eps = 2.0 ** 500
        for n, k in ((11, 5), (30, 10), (9, 4)):
            spec = KBodySpec(n, k, eps)
            want = 2 * Fraction(eps) ** 2 * n ** (2 * k) / math.factorial(k) ** 2
            if want < 2 ** 1024:
                assert rate_kbody_bound(spec, 1.0) == pytest.approx(float(want),
                                                                   rel=1e-14)
            else:
                assert rate_kbody_bound(spec, 1.0) == math.inf

    def test_binomial_bound_below_approx_bound(self):
        for n in range(1, 31):
            for k in range(1, min(n, 5) + 1):
                spec = KBodySpec(n, k, 1.0)
                assert rate_kbody_bound(spec, 1.0, "exact-binomial") \
                    <= rate_kbody_bound(spec, 1.0, "approx") + 1e-12

    def test_calibration_reference_point(self):
        for mode in ("approx", "exact-binomial"):
            assert calibrate_epsilon(1, 1, 2.7, mode) == pytest.approx(2.0 / 3.0)

    def test_calibration_two_body(self):
        assert calibrate_epsilon(2, 2, 1.0, "exact-binomial") == pytest.approx(8.0 / 5.0)

    def test_calibration_gamma_invariant(self):
        assert calibrate_epsilon(3, 2, 1.0) == pytest.approx(
            calibrate_epsilon(3, 2, 2.0), rel=1e-13)

    @pytest.mark.parametrize("mode", ["approx", "exact-binomial"])
    @pytest.mark.parametrize("n0,k", [(1, 1), (3, 2)])
    def test_calibration_where_gamma_overflows_the_bound(self, mode, n0, k):
        # 2 gamma overflows at gamma = 1e308; the channel rate cancels.
        unit = calibrate_epsilon(n0, k, 1.0, mode)
        assert calibrate_epsilon(n0, k, 1e308, mode) == unit
        assert calibrate_epsilon(n0, k, 1.7e308, mode) == unit


class TestCrossover:
    def test_values_with_reference_calibration(self):
        eps_sq = 2.0 / 3.0
        assert crossover_min_n(1, eps_sq, "approx") == 6
        assert crossover_min_n(1, eps_sq, "exact-binomial") == 6
        # k = 2 in both modes: finite, at least 10, near the k ~ n/10 + 1 trend.
        a = crossover_min_n(2, eps_sq, "approx")
        b = crossover_min_n(2, eps_sq, "exact-binomial")
        assert a == 14 and b == 13

    def test_monotone_in_k(self):
        eps_sq = 2.0 / 3.0
        for mode in ("approx", "exact-binomial"):
            values = [crossover_min_n(k, eps_sq, mode) for k in range(1, 6)]
            assert all(v is not None for v in values)
            assert all(x <= y for x, y in zip(values, values[1:]))

    def test_absence_reported(self):
        # An enormous amplitude keeps the polynomial bound above the GUE
        # curve for every n below the cap.
        assert crossover_min_n(2, 1e12, "approx", n_cap=20) is None


class TestTbre:
    def test_operator_norm_bound(self):
        for n in (2, 3, 4):
            v = build_tbre_operator(n)
            assert spectral_norm(v) <= 9.0 * (n - 1) + 1e-9

    def test_rate_below_bound_any_pure_state(self):
        gamma = 0.6
        gen = RngStream(32, 0).generator()
        for n in (2, 3):
            for _ in range(5):
                rate, bound = tbre_rate_and_bound(n, rand_pure(1 << n, gen), gamma)
                assert bound == pytest.approx(162 * gamma * (n - 1) ** 2)
                assert rate <= bound + 1e-9

    def test_maximally_mixed_zero(self):
        rate, _ = tbre_rate_and_bound(2, np.eye(4) / 4, 1.0)
        assert abs(rate) <= 1e-12

    def test_norm_squared_intermediate_bound(self):
        # n = 3: the rate also sits below 2 gamma ||V||^2 <= 648 gamma.
        gamma = 1.0
        v = build_tbre_operator(3)
        cap = 2 * gamma * spectral_norm(v) ** 2
        assert cap <= 648 * gamma + 1e-9
        gen = RngStream(32, 1).generator()
        for _ in range(5):
            rate, _ = tbre_rate_and_bound(3, rand_pure(8, gen), gamma)
            assert rate <= cap + 1e-9

    def test_hamiltonian_draw_is_hermitian(self):
        h = build_tbre_hamiltonian(3, RngStream(32, 2))
        assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_needs_two_spins(self):
        with pytest.raises(ValueError, match="two spins"):
            tbre_rate_and_bound(1, np.array([1.0, 0.0]), 1.0)


class TestLmg:
    def test_infinite_temperature_value(self):
        gamma = 0.4
        for n in range(2, 13):
            assert rate_lmg(n, 1.0, 0.0, gamma) == pytest.approx(
                2 * gamma * n * (n - 1), rel=1e-12)

    def test_general_epsilon(self):
        # 2 gamma eps^2 n (n-1), via <m^4> = 3n^2 - 2n for iid signs.
        for n, eps in [(3, 0.5), (7, 2.0), (10, 1.3)]:
            assert rate_lmg(n, eps, 0.0, 1.0) == pytest.approx(
                2 * eps ** 2 * n * (n - 1), rel=1e-12)

    def test_sector_vs_enumeration(self):
        # Brute force over all 2^n configurations with Gibbs weights.
        gamma, eps = 1.0, 0.9
        for n in (2, 5, 8):
            for beta in (0.0, 0.4, 1.5):
                energies = []
                for b in range(1 << n):
                    s = np.array([1 - 2 * ((b >> l) & 1) for l in range(n)])
                    energies.append(eps * (s.sum() ** 2 - n) / 2.0)
                e = np.array(energies)
                w = np.exp(-beta * (e - e.min()))
                w /= w.sum()
                var = float(w @ e ** 2 - (w @ e) ** 2)
                assert rate_lmg(n, eps, beta, gamma) == pytest.approx(
                    4 * gamma * var, rel=1e-10, abs=1e-10)

    def test_zero_temperature_limit(self):
        assert rate_lmg(6, 1.0, 60.0, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_sector_multiplicities(self):
        energies, mult = lmg_sector_spectrum(4, 1.0)
        assert mult.sum() == 16
        assert energies[0] == pytest.approx((16 - 4) / 2.0)

import numpy as np
import pytest

from dephase_lab import _pool
from dephase_lab.dynamics import annealing_check, ensemble_purity_tfd
from dephase_lab.ensembles import (EnsembleEstimate, RngStream,
                                   gue_trace_square_mc, haar_fourth_moment,
                                   haar_second_moment)
from dephase_lab.hermitian import DensityState
from dephase_lab.rates import rate_gue_mc


def _first_normals(gen, k):
    return gen.standard_normal(k)


def _complex_scalar(gen):
    return complex(gen.standard_normal(), gen.standard_normal())


class TestGatherSamples:
    def test_stacks_one_substream_per_index(self):
        rng = RngStream(7, 2)
        got = _pool.gather_samples(_first_normals, 5, rng, 1, 3)
        assert got.shape == (5, 3)
        for i in range(5):
            assert (got[i] == rng.sample_generator(i).standard_normal(3)).all()

    def test_worker_count_does_not_change_the_stack(self):
        rng = RngStream(7, 2)
        one = _pool.gather_samples(_first_normals, 11, rng, 1, 2)
        two = _pool.gather_samples(_first_normals, 11, rng, 2, 2)
        assert one.tobytes() == two.tobytes()

    def test_keeps_the_sample_dtype(self):
        got = _pool.gather_samples(_complex_scalar, 4, RngStream(1), 1)
        assert got.shape == (4,) and got.dtype == complex

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_fewer_than_two_samples(self, n):
        with pytest.raises(ValueError, match="at least two samples"):
            _pool.gather_samples(_first_normals, n, RngStream(1), 1, 2)


class TestFromSamples:
    def test_scalar_column_gives_floats(self):
        est = EnsembleEstimate.from_samples(np.array([1.0, 2.0, 4.0]), 9)
        assert isinstance(est.mean, float) and isinstance(est.stderr, float)
        assert est.mean == pytest.approx(7.0 / 3.0)
        assert est.stderr == pytest.approx(np.std([1.0, 2.0, 4.0], ddof=1)
                                           / np.sqrt(3.0))
        assert est.n_samples == 3 and est.master_seed == 9

    def test_complex_stderr_adds_both_variances(self):
        gen = np.random.default_rng(0)
        z = gen.standard_normal((50, 2, 2)) + 1j * gen.standard_normal((50, 2, 2))
        est = EnsembleEstimate.from_samples(z, 0)
        var = z.real.var(axis=0, ddof=1) + z.imag.var(axis=0, ddof=1)
        np.testing.assert_allclose(est.stderr, np.sqrt(var / 50), rtol=1e-12)
        np.testing.assert_allclose(est.mean, z.mean(axis=0), rtol=1e-12)


_X = np.diag([1.0, 2.0, 3.0]).astype(complex)
_ESTIMATORS = {
    "rate_gue_mc": lambda n: rate_gue_mc(
        DensityState.pure(np.array([1.0, 0.0], dtype=complex)), 1.0, 2, n,
        RngStream(1)),
    "gue_trace_square_mc": lambda n: gue_trace_square_mc(3, n, RngStream(1)),
    "haar_second_moment": lambda n: haar_second_moment(_X, n, RngStream(1)),
    "haar_fourth_moment": lambda n: haar_fourth_moment(_X, _X, _X, n,
                                                       RngStream(1)),
    "ensemble_purity_tfd": lambda n: ensemble_purity_tfd(
        1, 0.5, 1.0, np.array([0.0, 1.0]), n, RngStream(1)),
    "annealing_check": lambda n: annealing_check(0.5, 4, n, RngStream(1)),
}


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_every_estimator_needs_two_samples(name, n):
    with pytest.raises(ValueError, match="at least two samples"):
        _ESTIMATORS[name](n)

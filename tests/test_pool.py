import concurrent.futures

import numpy as np
import pytest

from _oracles import haar_fourth_sample, haar_second_sample
from dephase_lab import _pool, ensembles
from dephase_lab.dynamics import annealing_check, ensemble_purity_tfd
from dephase_lab.ensembles import (EnsembleEstimate, RngStream,
                                   gue_trace_square_mc, haar_fourth_moment,
                                   haar_second_moment)
from dephase_lab.rates import PAULI, LindbladChannel, rate_gue_mc
from dephase_lab.trajectories import TrajectoryConfig, average_trajectories


def _first_normals(gen, k):
    return gen.standard_normal(k)


def _complex_scalar(gen):
    return complex(gen.standard_normal(), gen.standard_normal())


def _uint32_then_normals(gen, k):
    # One 32-bit draw leaves half a 64-bit word cached and the Philox buffer
    # part used, so the next index sees both unless the engine resets them.
    return np.concatenate([[float(gen.integers(2 ** 32, dtype=np.uint32))],
                           gen.standard_normal(k)])


def _row_sums_and_block_size(block, k):
    return np.column_stack([block.sum(axis=1), np.full(len(block), len(block))])


def _row_sums(block, k):
    return block.sum(axis=1)


def _jumped(rng, i):
    """Reference substream: the Philox jump API, independent of the engine."""
    key = np.array([rng.master_seed, rng.stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key).jumped(i))


_INDICES = [0, 1, 1023, 1024, 1025, 2 ** 40]


class TestSubstreams:
    @pytest.mark.parametrize("i", _INDICES)
    def test_sample_generator_is_the_jumped_stream(self, i):
        rng = RngStream(7, 2)
        got = _uint32_then_normals(rng.sample_generator(i), 5)
        assert got.tobytes() == _uint32_then_normals(_jumped(rng, i), 5).tobytes()

    def test_sample_generator_is_fresh_per_call(self):
        rng = RngStream(7, 2)
        assert rng.sample_generator(3) is not rng.sample_generator(3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_reuse_matches_the_jumped_streams(self, workers):
        rng = RngStream(7, 2)
        got = _pool.gather_samples(_uint32_then_normals, 1026, rng, workers, 5)
        for i in _INDICES[:-1]:
            want = _uint32_then_normals(_jumped(rng, i), 5)
            assert got[i].tobytes() == want.tobytes()

    def test_engine_reuse_at_a_large_index(self):
        rng = RngStream(7, 2)
        start = 2 ** 40 - 2
        got = _pool._sample_chunk((_uint32_then_normals, None, rng, start,
                                   start + 4, (5,)))
        for k in range(4):
            want = _uint32_then_normals(_jumped(rng, start + k), 5)
            assert got[k].tobytes() == want.tobytes()


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

    def test_batch_fn_maps_each_block(self):
        rng = RngStream(7, 3)
        n = _pool._BLOCK + 5
        plain = _pool.gather_samples(_first_normals, n, rng, 1, 4)
        got = _pool.gather_samples(_first_normals, n, rng, 1, 4,
                                   batch_fn=_row_sums_and_block_size)
        assert got.shape == (n, 2)
        assert got[:, 0].tobytes() == plain.sum(axis=1).tobytes()
        assert (got[:_pool._BLOCK, 1] == _pool._BLOCK).all()
        assert (got[_pool._BLOCK:, 1] == 5).all()

    def test_batch_fn_rows_do_not_depend_on_workers(self):
        rng = RngStream(7, 3)
        n = _pool._BLOCK + 5
        one = _pool.gather_samples(_first_normals, n, rng, 1, 4, batch_fn=_row_sums)
        two = _pool.gather_samples(_first_normals, n, rng, 2, 4, batch_fn=_row_sums)
        assert one.shape == (n,)
        assert one.tobytes() == two.tobytes()


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the size, runs in-process."""

    sizes: list[int] = []
    n_tasks: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        payloads = list(payloads)
        self.n_tasks.append(len(payloads))
        return map(fn, payloads)


class TestWorkerCap:
    @pytest.fixture
    def executor(self, monkeypatch):
        _RecordingExecutor.sizes, _RecordingExecutor.n_tasks = [], []
        # run_chunked imports the executor class only when it starts a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _RecordingExecutor)
        monkeypatch.setattr(_pool.os, "cpu_count", lambda: 4)
        return _RecordingExecutor

    def test_capped_at_the_payload_count(self, executor):
        assert _pool.run_chunked(abs, [-1, -2, -3], 1000) == [1, 2, 3]
        assert executor.sizes == [3]

    def test_capped_at_the_core_count(self, executor):
        assert _pool.run_chunked(abs, list(range(-10, 0)), 1000) == list(range(10, 0, -1))
        assert executor.sizes == [4]

    def test_serial_without_a_core_count(self, executor, monkeypatch):
        monkeypatch.setattr(_pool.os, "cpu_count", lambda: None)
        assert _pool.run_chunked(abs, [-1, -2], 8) == [1, 2]
        assert executor.sizes == []

    def test_engine_chunks_follow_the_capped_count(self, executor):
        rng = RngStream(7, 2)
        got = _pool.gather_samples(_first_normals, 2000, rng, 1000, 2)
        assert executor.sizes == [4] and executor.n_tasks == [16]
        assert got.tobytes() == _pool.gather_samples(_first_normals, 2000, rng,
                                                     1, 2).tobytes()


class TestBatchedHaar:
    """The stacked QR and products against one 2-D draw per sample."""

    n = 2 * _pool._BLOCK + 3

    @staticmethod
    def _operators():
        gen = np.random.default_rng(5)
        a = gen.standard_normal((3, 3, 3)) + 1j * gen.standard_normal((3, 3, 3))
        return a + np.swapaxes(a.conj(), -1, -2)

    def test_second_moment_stack(self):
        xm = self._operators()[0]
        rng = RngStream(4, 101)
        got = _pool.gather_samples(ensembles._haar_ginibre, self.n, rng, 1, xm,
                                   batch_fn=ensembles._haar_second_batch)
        want = np.stack([haar_second_sample(_jumped(rng, i), xm)
                         for i in range(self.n)])
        assert got.tobytes() == want.tobytes()

    def test_fourth_moment_stack(self):
        ms = tuple(self._operators())
        rng = RngStream(4, 102)
        got = _pool.gather_samples(ensembles._haar_ginibre, self.n, rng, 1, *ms,
                                   batch_fn=ensembles._haar_fourth_batch)
        want = np.stack([haar_fourth_sample(_jumped(rng, i), *ms)
                         for i in range(self.n)])
        assert got.tobytes() == want.tobytes()


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
    "rate_gue_mc": lambda n: rate_gue_mc(np.array([1.0, 0.0]), 1.0, 2, n,
                                         RngStream(1)),
    "gue_trace_square_mc": lambda n: gue_trace_square_mc(3, n, RngStream(1)),
    "haar_second_moment": lambda n: haar_second_moment(_X, n, RngStream(1)),
    "haar_fourth_moment": lambda n: haar_fourth_moment(_X, _X, _X, n,
                                                       RngStream(1)),
    "ensemble_purity_tfd": lambda n: ensemble_purity_tfd(
        1, [0.5], 1.0, np.array([0.0, 1.0]), n, RngStream(1)),
    "annealing_check": lambda n: annealing_check([0.5], 4, n, RngStream(1)),
    "average_trajectories": lambda n: average_trajectories(
        None, [LindbladChannel(1.0, PAULI["z"])], np.array([1.0, 0.0]),
        TrajectoryConfig(dt=1e-3, steps=2, n_trajectories=n), RngStream(1)),
}


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_every_estimator_needs_two_samples(name, n):
    with pytest.raises(ValueError, match="at least two samples"):
        _ESTIMATORS[name](n)

import concurrent.futures
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from _oracles import haar_fourth_sample, haar_second_sample, haar_unitary_2d
from dephase_lab import _pool, ensembles, rates
from dephase_lab.dynamics import annealing_check, ensemble_purity_tfd
from dephase_lab.exceptions import NumericalError
from dephase_lab.ensembles import (EnsembleEstimate, RngStream,
                                   gue_trace_square_mc, haar_fourth_moment,
                                   haar_second_moment)
from dephase_lab.rates import PAULI, LindbladChannel, rate_gue_mc
from dephase_lab.trajectories import TrajectoryConfig, average_trajectories


def _first_normals(gen, m, k):
    return gen.standard_normal((m, k))


def _complex_scalars(gen, m):
    return gen.standard_normal(m) + 1j * gen.standard_normal(m)


def _uint32_then_normals(gen, m, k):
    # One 32-bit draw per row leaves half a 64-bit word cached and the
    # Philox buffer part used: the next row sees both, the next block must
    # see neither.
    return np.stack([np.concatenate([[float(gen.integers(2 ** 32, dtype=np.uint32))],
                                     gen.standard_normal(k)])
                     for _ in range(m)])


def _row_sums_and_block_size(gen, m, k):
    return np.column_stack([gen.standard_normal((m, k)).sum(axis=1), np.full(m, m)])


def _jumped(rng, i):
    """Reference substream: the Philox jump API, independent of the engine."""
    key = np.array([rng.master_seed, rng.stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key).jumped(i))


def _blocks(n):
    """``(b, lo, hi)`` of every block of an ``n``-sample run."""
    B = _pool._BLOCK
    return [(b, lo, min(lo + B, n)) for b, lo in enumerate(range(0, n, B))]


_INDICES = [0, 1, 1023, 1024, 1025, 2 ** 40]


class TestSubstreams:
    @pytest.mark.parametrize("i", _INDICES)
    def test_sample_generator_is_the_jumped_stream(self, i):
        rng = RngStream(7, 2)
        got = _uint32_then_normals(rng.sample_generator(i), 2, 5)
        assert got.tobytes() == _uint32_then_normals(_jumped(rng, i), 2, 5).tobytes()

    def test_sample_generator_is_fresh_per_call(self):
        rng = RngStream(7, 2)
        assert rng.sample_generator(3) is not rng.sample_generator(3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_reuse_matches_the_jumped_streams(self, workers):
        # Block b is the jumped stream b, whatever chunk or worker draws it.
        rng = RngStream(7, 2)
        n = 3 * _pool._BLOCK + 2
        got = _pool.gather_samples(_uint32_then_normals, n, rng, workers, 5)
        for b, lo, hi in _blocks(n):
            want = _uint32_then_normals(_jumped(rng, b), hi - lo, 5)
            assert got[lo:hi].tobytes() == want.tobytes()

    def test_engine_reuse_at_a_large_index(self):
        rng = RngStream(7, 2)
        b0 = 2 ** 40 - 1
        n = (b0 + 2) * _pool._BLOCK - 3
        got = _pool._block_chunk((_uint32_then_normals, rng, n, b0, b0 + 2, (5,)))
        assert got.shape == (2 * _pool._BLOCK - 3, 6)
        for j in range(2):
            m = _pool._BLOCK - 3 * j
            want = _uint32_then_normals(_jumped(rng, b0 + j), m, 5)
            assert got[j * _pool._BLOCK:][:m].tobytes() == want.tobytes()


class TestGatherSamples:
    def test_stacks_one_substream_per_block(self):
        rng = RngStream(7, 2)
        n = 2 * _pool._BLOCK + 5
        got = _pool.gather_samples(_first_normals, n, rng, 1, 3)
        assert got.shape == (n, 3)
        for b, lo, hi in _blocks(n):
            want = rng.sample_generator(b).standard_normal((hi - lo, 3))
            assert got[lo:hi].tobytes() == want.tobytes()

    def test_worker_count_does_not_change_the_stack(self):
        rng = RngStream(7, 2)
        n = 3 * _pool._BLOCK + 11
        one = _pool.gather_samples(_first_normals, n, rng, 1, 2)
        two = _pool.gather_samples(_first_normals, n, rng, 2, 2)
        assert one.tobytes() == two.tobytes()

    def test_keeps_the_sample_dtype(self):
        got = _pool.gather_samples(_complex_scalars, 4, RngStream(1), 1)
        assert got.shape == (4,) and got.dtype == complex

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_fewer_than_two_samples(self, n):
        with pytest.raises(ValueError, match="at least two samples"):
            _pool.gather_samples(_first_normals, n, RngStream(1), 1, 2)

    def test_block_fn_maps_each_block(self):
        rng = RngStream(7, 3)
        n = _pool._BLOCK + 5
        plain = _pool.gather_samples(_first_normals, n, rng, 1, 4)
        got = _pool.gather_samples(_row_sums_and_block_size, n, rng, 1, 4)
        assert got.shape == (n, 2)
        assert got[:, 0].tobytes() == plain.sum(axis=1).tobytes()
        assert (got[:_pool._BLOCK, 1] == _pool._BLOCK).all()
        assert (got[_pool._BLOCK:, 1] == 5).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rows_are_a_numerical_failure(self, bad):
        with pytest.raises(NumericalError, match="not finite"):
            _pool.gather_samples(_with_one_value, 2 * _pool._BLOCK, RngStream(1),
                                 1, bad)

    def test_block_functions_run_without_float_warnings(self):
        # 1e308 * 10 overflows; the engine reports the inf it leaves behind.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                _pool.gather_samples(_scaled_normals, 10, RngStream(1), 1, 1e308)


def _with_one_value(gen, m, value):
    rows = gen.standard_normal(m)
    rows[-1] = value
    return rows


def _scaled_normals(gen, m, scale):
    return scale * (10.0 + np.abs(gen.standard_normal(m)))


class TestRowSlices:
    @pytest.mark.parametrize("m,row_size", [(256, 4), (256, 64), (256, 4096),
                                            (5, 1 << 15), (1, 1)])
    def test_slices_tile_the_block_within_the_budget(self, m, row_size):
        pieces = _pool.row_slices(m, row_size)
        assert pieces[0][0] == 0 and pieces[-1][1] == m
        assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
        assert all(hi - lo == 1 or (hi - lo) * row_size <= _pool._SLICE
                   for lo, hi in pieces)

    @pytest.mark.parametrize("d", [1, 7])
    def test_gue_block_drawn_in_slices_equals_one_draw(self, d):
        rng = RngStream(9, 1)
        cols = np.arange(d)
        v = ensembles._gue_columns(rng.sample_generator(0), 100, d, cols)
        gen = rng.sample_generator(0)
        parts = [ensembles._gue_columns(gen, m, d, cols) for m in (13, 40, 47)]
        assert v.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("slice_size", [1, 16 * 16 * 7, 1 << 20])
    def test_rates_do_not_depend_on_the_slice_size(self, monkeypatch, slice_size):
        psi = np.exp(1j * np.arange(16.0)) / 4.0
        rng = RngStream(9, 2)
        want = _pool.gather_samples(rates._rate_gue_block, 300, rng, 1, 16, 1.0,
                                    psi)
        monkeypatch.setattr(_pool, "_SLICE", slice_size)
        got = _pool.gather_samples(rates._rate_gue_block, 300, rng, 1, 16, 1.0,
                                   psi)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slice_size", [1, 8 * 8 * 7, 1 << 20])
    def test_mixed_state_rates_do_not_depend_on_the_slice_size(self, monkeypatch,
                                                               slice_size):
        a = np.exp(1j * np.outer(np.arange(8.0), np.arange(8.0)) / 3) + np.eye(8)
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        rng = RngStream(9, 3)
        want = _pool.gather_samples(rates._rate_gue_block, 300, rng, 1, 8, 1.0, rho)
        monkeypatch.setattr(_pool, "_SLICE", slice_size)
        got = _pool.gather_samples(rates._rate_gue_block, 300, rng, 1, 8, 1.0, rho)
        assert got.tobytes() == want.tobytes()


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
        # 2000 samples are 8 blocks: 4 workers, and at most one chunk a block.
        rng = RngStream(7, 2)
        got = _pool.gather_samples(_first_normals, 2000, rng, 1000, 2)
        assert executor.sizes == [4] and executor.n_tasks == [8]
        assert got.tobytes() == _pool.gather_samples(_first_normals, 2000, rng,
                                                     1, 2).tobytes()

    def test_workers_1_2_4_give_identical_stacks(self, executor):
        n = 5 * _pool._BLOCK + 7
        psi = np.exp(1j * np.arange(8.0)) / np.sqrt(8.0)
        runs = {
            "engine": lambda w: _pool.gather_samples(_uint32_then_normals, n,
                                                     RngStream(7, 4), w, 3),
            "rate_gue_mc": lambda w: np.array([*astuple(rate_gue_mc(
                psi, 1.0, 8, n, RngStream(7, 5), workers=w))[:2]]),
            "ensemble_purity_tfd": lambda w: np.array([c.purity.mean for c in
                ensemble_purity_tfd(2, [0.0, 1.0], 1.0, np.array([0.0, 1.0]),
                                    n, RngStream(7, 6), workers=w)]),
        }
        for name, run in runs.items():
            stacks = [run(w).tobytes() for w in (1, 2, 4)]
            assert stacks[0] == stacks[1] == stacks[2], name
        assert executor.sizes == [2, 4] * len(runs)


class TestBatchedHaar:
    """Both Haar routes against samples drawn one after another from each
    block's substream.  Above ``_GS_MAX_DIM`` the stacked QR and products
    equal one 2-D QR and ``@`` per sample bit for bit; up to it the
    Gram-Schmidt stack equals the same block function at one sample per
    call bit for bit, and the 2-D QR within 1e-12."""

    n = 2 * _pool._BLOCK + 3

    @staticmethod
    def _operators(d):
        gen = np.random.default_rng(5)
        a = gen.standard_normal((3, d, d)) + 1j * gen.standard_normal((3, d, d))
        return a + np.swapaxes(a.conj(), -1, -2)

    def _per_sample(self, rng, sample, *args):
        rows = []
        for b, lo, hi in _blocks(self.n):
            gen = _jumped(rng, b)
            rows += [sample(gen, *args) for _ in range(hi - lo)]
        return np.stack(rows)

    def test_second_moment_stack(self):
        for d in (5, 6):
            xm = self._operators(d)[0]
            rng = RngStream(4, 101)
            got = _pool.gather_samples(ensembles._haar_moment_block, self.n, rng, 1, xm)
            want = self._per_sample(rng, haar_second_sample, xm)
            assert got.tobytes() == want.tobytes(), d

    def test_fourth_moment_stack(self):
        for d in (5, 6):
            ms = tuple(self._operators(d))
            rng = RngStream(4, 102)
            got = _pool.gather_samples(ensembles._haar_moment_block, self.n, rng, 1, *ms)
            want = self._per_sample(rng, haar_fourth_sample, *ms)
            assert got.tobytes() == want.tobytes(), d

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n_ops", [1, 3], ids=["second", "fourth"])
    def test_gram_schmidt_stack_equals_one_sample_per_call(self, n_ops, d):
        ms = tuple(self._operators(d)[:n_ops])
        rng = RngStream(4, 103)
        block = ensembles._haar_moment_block
        got = _pool.gather_samples(block, self.n, rng, 1, *ms)
        want = self._per_sample(rng, lambda gen, *ops: block(gen, 1, *ops)[0], *ms)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_gram_schmidt_matches_the_lapack_oracle(self, d):
        # Unit spectral norms, so that every sample is at most 1 in size.
        ms = tuple(x / np.linalg.norm(x, 2) for x in self._operators(d))
        rng = RngStream(4, 104)
        for block, sample, args in (
                (ensembles._haar_block, haar_unitary_2d, (d,)),
                (ensembles._haar_moment_block, haar_second_sample, ms[:1]),
                (ensembles._haar_moment_block, haar_fourth_sample, ms)):
            got = _pool.gather_samples(block, self.n, rng, 1, *args)
            want = self._per_sample(rng, sample, *args)
            assert np.abs(got - want).max() <= 1e-12, sample.__name__


class TestFromSamples:
    def test_scalar_column_gives_floats(self):
        est = EnsembleEstimate.from_samples(np.array([1.0, 2.0, 4.0]))
        assert isinstance(est.mean, float) and isinstance(est.stderr, float)
        assert est.mean == pytest.approx(7.0 / 3.0)
        assert est.stderr == pytest.approx(np.std([1.0, 2.0, 4.0], ddof=1)
                                           / np.sqrt(3.0))

    def test_complex_stderr_adds_both_variances(self):
        gen = np.random.default_rng(0)
        z = gen.standard_normal((50, 2, 2)) + 1j * gen.standard_normal((50, 2, 2))
        est = EnsembleEstimate.from_samples(z)
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

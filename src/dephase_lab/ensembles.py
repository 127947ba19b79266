"""Random-matrix and Haar-unitary sampling with reproducible streams.

The GUE convention is pinned to the matrix weight ``exp(-tr X^2)``: diagonal
entries are real N(0, 1/2) and the real and imaginary parts of each
off-diagonal entry are N(0, 1/4).  With this normalization the eigenvalue
density at large dimension is the semicircle on ``[-sqrt(2 d), sqrt(2 d)]``
and ``<tr X^2> = d^2/2``.  Estimators that need only eigenvalues (the
thermofield-double ensemble, the annealing check) draw them from the
tridiagonal beta = 2 model of the same law, which needs numpy alone; the
rate estimator, which applies the matrix to a state, draws it dense.

Randomness is counter-based (Philox).  A :class:`RngStream` is the pair
``(master_seed, stream_index)``; distinct pairs give independent streams and
the same pair reproduces the same values on any platform or worker layout.
Every ensemble estimator runs through the sample engine in ``_pool``, which
derives one substream per sample index by setting the Philox counter, so
results are independent of how samples are distributed over workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pool
from .hermitian import as_matrix
from .specfun import _hermite_functions

__all__ = [
    "RngStream", "GueSpec", "EnsembleEstimate", "sample_gue",
    "sample_haar_unitary", "haar_second_moment", "haar_second_moment_exact",
    "haar_fourth_moment", "haar_fourth_moment_exact", "gue_level_density",
    "gue_trace_square_mc",
]


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def bit_generator(self, index: int = 0) -> np.random.Philox:
        """Philox of this stream's key with its counter at ``[0, 0, index, 0]``.

        That is substream ``index``: the state that ``index`` Philox jumps
        (of 2^128 draws each) reach from counter zero, built directly at a
        quarter of the cost of jumping.
        """
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        counter = np.array([0, 0, index, 0], dtype=np.uint64)
        return np.random.Philox(counter=counter, key=key)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(self.bit_generator())

    def sample_generator(self, index: int) -> np.random.Generator:
        """Fresh generator for sample ``index`` of an ensemble loop."""
        return np.random.Generator(self.bit_generator(index))


@dataclass(frozen=True)
class GueSpec:
    """Dimension of a GUE draw; the weight convention exp(-tr X^2) is fixed."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class EnsembleEstimate:
    """Monte-Carlo mean with its standard error and provenance."""

    mean: float | np.ndarray
    stderr: float | np.ndarray
    n_samples: int
    master_seed: int

    @classmethod
    def from_samples(cls, samples: np.ndarray, master_seed: int
                     ) -> EnsembleEstimate:
        """Mean and standard error ``std(ddof=1)/sqrt(n)`` over axis 0.

        Scalar columns give floats.  For complex entries the standard error
        is ``sqrt((var Re + var Im) / n)``.
        """
        n = samples.shape[0]
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(n)
        if mean.ndim == 0:
            return cls(float(mean), float(stderr), n, master_seed)
        return cls(mean, stderr, n, master_seed)


def _ginibre_from_normals(r: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices from the ``(..., 2, d, d)`` normals that
    ``gen.standard_normal((2, d, d))`` draws per matrix: real parts first.

    Each entry is ``(a + 1j b) / sqrt(2)`` whatever the stack shape, so a
    matrix assembled in a stack is bit-identical to one assembled alone.
    """
    return (r[..., 0, :, :] + 1j * r[..., 1, :, :]) / np.sqrt(2.0)


def _ginibre(gen: np.random.Generator, d: int) -> np.ndarray:
    """Complex Ginibre matrix with independent standard complex normal entries."""
    return _ginibre_from_normals(gen.standard_normal((2, d, d)))


def _gue_matrix(d: int, gen: np.random.Generator) -> np.ndarray:
    """Raw GUE draw as an ndarray; Hermitian exactly by construction."""
    z = _ginibre(gen, d)
    return (z + z.conj().T) / 2.0


def _gue_spectrum(gen: np.random.Generator, d: int) -> np.ndarray:
    """Ascending eigenvalues of one GUE draw, from its tridiagonal form.

    Householder reduction of a GUE matrix leaves a real symmetric
    tridiagonal matrix with the same spectrum: an ``N(0, 1/2)`` diagonal and
    off-diagonal entries ``sqrt(chi^2_{2k}/4)`` for ``k = d-1, ..., 1``
    (Dumitriu & Edelman, J. Math. Phys. 43, 5830 (2002), at beta = 2).  So
    one draw costs ``2d - 1`` variates and one real eigensolve instead of
    ``2 d^2`` variates and a complex one.
    """
    diag = np.sqrt(0.5) * gen.standard_normal(d)
    off = np.sqrt(gen.chisquare(2.0 * np.arange(d - 1, 0, -1)) / 4.0)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))


def sample_gue(spec: GueSpec, rng: RngStream) -> np.ndarray:
    """Draw one GUE matrix under the exp(-tr X^2) convention."""
    return _gue_matrix(spec.dim, rng.generator())


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a Ginibre matrix or a stack of them.

    QR of a complex Ginibre matrix; fixing the phases of R's diagonal to be
    positive makes the distribution exactly Haar.  A stack is factored
    matrix by matrix, so each unitary is bit-identical to its own 2-D call.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    return _haar_from_ginibre(_ginibre(gen, d))


def sample_haar_unitary(d: int, rng: RngStream) -> np.ndarray:
    """Draw a Haar-distributed unitary matrix."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_unitary(d, rng.generator())


def _haar_ginibre(gen: np.random.Generator, m1: np.ndarray, *_) -> np.ndarray:
    """Per-sample draw of the Haar moments: the raw normals of one Ginibre
    matrix of m1's dimension.  Assembly, QR and products run per block."""
    d = m1.shape[0]
    return gen.standard_normal((2, d, d))


def _haar_second_batch(r: np.ndarray, xm: np.ndarray) -> np.ndarray:
    u = _haar_from_ginibre(_ginibre_from_normals(r))
    return u @ xm @ np.swapaxes(u.conj(), -1, -2)


def haar_second_moment(x, n_samples: int, rng: RngStream
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of ``U X U^dagger`` over Haar unitaries.

    Returns ``(mean, stderr)`` with an entrywise standard error; the exact
    average is ``tr(X) 1/d`` (see :func:`haar_second_moment_exact`).
    """
    samples = _pool.gather_samples(_haar_ginibre, n_samples, rng, 1, as_matrix(x),
                                   batch_fn=_haar_second_batch)
    est = EnsembleEstimate.from_samples(samples, rng.master_seed)
    return est.mean, est.stderr


def haar_second_moment_exact(x) -> np.ndarray:
    xm = as_matrix(x)
    d = xm.shape[0]
    return np.trace(xm) / d * np.eye(d, dtype=complex)


def _haar_fourth_batch(r: np.ndarray, m1: np.ndarray, m2: np.ndarray,
                       m3: np.ndarray) -> np.ndarray:
    u = _haar_from_ginibre(_ginibre_from_normals(r))
    udag = np.swapaxes(u.conj(), -1, -2)
    return u @ m1 @ udag @ m2 @ u @ m3 @ udag


def haar_fourth_moment(x1, x2, x3, n_samples: int, rng: RngStream
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of ``U X1 U^dagger X2 U X3 U^dagger`` over Haar unitaries."""
    m1, m2, m3 = as_matrix(x1), as_matrix(x2), as_matrix(x3)
    d = m1.shape[0]
    if not (m2.shape[0] == m3.shape[0] == d):
        raise ValueError("operators must share one dimension")
    samples = _pool.gather_samples(_haar_ginibre, n_samples, rng, 1, m1, m2, m3,
                                   batch_fn=_haar_fourth_batch)
    est = EnsembleEstimate.from_samples(samples, rng.master_seed)
    return est.mean, est.stderr


def haar_fourth_moment_exact(x1, x2, x3) -> np.ndarray:
    """Closed form of the Haar average ``<U X1 U^dagger X2 U X3 U^dagger>``.

    Equals ``a tr(X2) 1 + b X2`` with
    ``a = [d tr(X1 X3) - tr X1 tr X3] / (d (d^2-1))`` and
    ``b = [d tr X1 tr X3 - tr(X1 X3)] / (d (d^2-1))``; undefined at d = 1.
    """
    m1, m2, m3 = as_matrix(x1), as_matrix(x2), as_matrix(x3)
    d = m1.shape[0]
    if d == 1:
        raise ValueError("the closed form has a vanishing denominator at d = 1")
    t13 = np.trace(m1 @ m3)
    t1, t3 = np.trace(m1), np.trace(m3)
    den = d * (d * d - 1)
    a = (d * t13 - t1 * t3) / den
    b = (d * t1 * t3 - t13) / den
    return a * np.trace(m2) * np.eye(d, dtype=complex) + b * m2


def gue_level_density(v, d: int):
    """GUE-averaged eigenvalue density ``sum_{l<d} phi_l(v)^2``.

    Nonnegative and integrates to ``d`` over the real line.  The normalized
    Hermite-function recurrence keeps every value O(1), so the evaluation is
    stable up to dimensions of about two thousand.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = np.asarray(v, dtype=float)
    rho = sum(phi * phi for phi in _hermite_functions(d, v))
    return rho if rho.ndim else float(rho)


def _trace_square_sample(gen: np.random.Generator, d: int) -> float:
    return float(np.trace(_gue_matrix(d, gen)).real) ** 2


def gue_trace_square_mc(d: int, n_samples: int, rng: RngStream) -> EnsembleEstimate:
    """Monte-Carlo estimate of ``<(tr V)^2>`` over GUE.

    Kept as a sampler on purpose: two closed-form candidates (0 and d/2)
    circulate for this moment depending on how the connected two-point
    integral is summed, and the decoherence-rate suite adjudicates between
    them empirically instead of hard-coding either.
    """
    vals = _pool.gather_samples(_trace_square_sample, n_samples, rng, 1, d)
    return EnsembleEstimate.from_samples(vals, rng.master_seed)

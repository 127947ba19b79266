"""Random-matrix and Haar-unitary sampling with reproducible streams.

The GUE convention is pinned to the matrix weight ``exp(-tr X^2)``: diagonal
entries are real N(0, 1/2) and the real and imaginary parts of each
off-diagonal entry are N(0, 1/4).  With this normalization the eigenvalue
density at large dimension is the semicircle on ``[-sqrt(2 d), sqrt(2 d)]``
and ``<tr X^2> = d^2/2``.

Randomness is counter-based (Philox).  A :class:`RngStream` is the pair
``(master_seed, stream_index)``; distinct pairs give independent streams and
the same pair reproduces the same values on any platform or worker layout.
Every ensemble estimator runs through the sample engine in ``_pool``, which
derives one substream per sample index by jumping the Philox counter, so
results are independent of how samples are distributed over workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pool
from .hermitian import HermitianOperator, as_matrix

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

    def bit_generator(self) -> np.random.Philox:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Philox(key=key)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(self.bit_generator())

    def sample_generator(self, index: int) -> np.random.Generator:
        """Generator for one sample of an ensemble loop (counter jump)."""
        return np.random.Generator(self.bit_generator().jumped(index))


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


def _gue_matrix(d: int, gen: np.random.Generator) -> np.ndarray:
    """Raw GUE draw as an ndarray; Hermitian exactly by construction."""
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
    return (z + z.conj().T) / 2.0


def sample_gue(spec: GueSpec, rng: RngStream) -> HermitianOperator:
    """Draw one GUE matrix under the exp(-tr X^2) convention."""
    return HermitianOperator(_gue_matrix(spec.dim, rng.generator()), validate=False)


def _haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    # QR of a complex Ginibre matrix; fixing the phases of R's diagonal to be
    # positive makes the distribution exactly Haar.
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def sample_haar_unitary(d: int, rng: RngStream) -> np.ndarray:
    """Draw a Haar-distributed unitary matrix."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_unitary(d, rng.generator())


def _haar_second_sample(gen: np.random.Generator, xm: np.ndarray) -> np.ndarray:
    u = _haar_unitary(xm.shape[0], gen)
    return u @ xm @ u.conj().T


def haar_second_moment(x, n_samples: int, rng: RngStream
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of ``U X U^dagger`` over Haar unitaries.

    Returns ``(mean, stderr)`` with an entrywise standard error; the exact
    average is ``tr(X) 1/d`` (see :func:`haar_second_moment_exact`).
    """
    samples = _pool.gather_samples(_haar_second_sample, n_samples, rng, 1,
                                   as_matrix(x))
    est = EnsembleEstimate.from_samples(samples, rng.master_seed)
    return est.mean, est.stderr


def haar_second_moment_exact(x) -> np.ndarray:
    xm = as_matrix(x)
    d = xm.shape[0]
    return np.trace(xm) / d * np.eye(d, dtype=complex)


def _haar_fourth_sample(gen: np.random.Generator, m1: np.ndarray,
                        m2: np.ndarray, m3: np.ndarray) -> np.ndarray:
    u = _haar_unitary(m1.shape[0], gen)
    udag = u.conj().T
    return u @ m1 @ udag @ m2 @ u @ m3 @ udag


def haar_fourth_moment(x1, x2, x3, n_samples: int, rng: RngStream
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of ``U X1 U^dagger X2 U X3 U^dagger`` over Haar unitaries."""
    m1, m2, m3 = as_matrix(x1), as_matrix(x2), as_matrix(x3)
    d = m1.shape[0]
    if not (m2.shape[0] == m3.shape[0] == d):
        raise ValueError("operators must share one dimension")
    samples = _pool.gather_samples(_haar_fourth_sample, n_samples, rng, 1,
                                   m1, m2, m3)
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
    phi = np.pi ** -0.25 * np.exp(-0.5 * v * v)
    phi_prev = np.zeros_like(v)
    rho = phi * phi
    for l in range(1, d):
        phi_prev, phi = phi, v * np.sqrt(2.0 / l) * phi - np.sqrt((l - 1) / l) * phi_prev
        rho = rho + phi * phi
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

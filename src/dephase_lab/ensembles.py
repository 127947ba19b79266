"""Random-matrix and Haar-unitary sampling with reproducible streams.

The GUE convention is pinned to the matrix weight ``exp(-tr X^2)``: diagonal
entries are real N(0, 1/2) and the real and imaginary parts of each
off-diagonal entry are N(0, 1/4).  With this normalization the eigenvalue
density at large dimension is the semicircle on ``[-sqrt(2 d), sqrt(2 d)]``
and ``<tr X^2> = d^2/2``.  A dense draw is ``V = w g + conj(w) g^T``, with
``w = e^{i pi/4}/2`` and ``g`` a ``d x d`` matrix of standard normals.  A draw
that is read only through some columns ``V[:, S]`` takes only the normals in
the rows and columns ``S`` of ``g`` (``2 |S| d - |S|^2``), and ``tr V`` only the
``d`` diagonal ones.
Estimators that need only eigenvalues (the thermofield-double ensemble, the
annealing check) draw them from the tridiagonal beta = 2 model of the same law,
solved by the LAPACK ``dsterf`` that numpy's ``eigvalsh`` itself calls.
:func:`_tridiagonal_eigvalsh` is the one tridiagonal route of the package: the
GUE spectra and the Gauss-Hermite nodes of ``dynamics`` both go through it.

A Haar unitary is the Q factor of a Ginibre matrix whose R factor has a
positive real diagonal (Mezzadri, Notices AMS 54, 592 (2007)).  Gram-Schmidt
gives that Q directly, since it divides each column by its norm; applied
twice it is orthonormal to working precision.  Up to d = 4 a block's Ginibre
matrices are held sample-last and orthonormalised that way, in a few dozen
numpy calls; above, each matrix goes through LAPACK QR and BLAS products,
which win as d grows (see ``_GS_MAX_DIM``).

Randomness is counter-based (Philox).  A :class:`RngStream` is the pair
``(master_seed, stream_index)``; distinct pairs give independent streams and
the same pair reproduces the same values on any platform or worker layout.
Every ensemble estimator runs through the sample engine in ``_pool``, which
derives one substream per block of samples by setting the Philox counter, so
results are independent of how blocks are distributed over workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .hermitian import as_matrix
from .specfun import _check_int

@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (master_seed, stream_index),
    two integers in ``[0, 2^64)``: the Philox key."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        _check_int("master_seed", self.master_seed, 0, 2 ** 64 - 1)
        _check_int("stream_index", self.stream_index, 0, 2 ** 64 - 1)

    def sample_generator(self, index: int = 0) -> np.random.Generator:
        """Fresh generator on substream ``index`` (the engine's block ``index``):
        Philox of this stream's key with its counter at ``[0, 0, index, 0]``.

        That is the state that ``index`` Philox jumps (of 2^128 draws each)
        reach from counter zero, built directly at a quarter of the cost of
        jumping.
        """
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        counter = np.array([0, 0, index, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))


@dataclass(frozen=True)
class EnsembleEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float | np.ndarray
    stderr: float | np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> EnsembleEstimate:
        """Mean and standard error ``std(ddof=1)/sqrt(n)`` over axis 0.

        Scalar columns give floats.  For complex entries the standard error
        is ``sqrt((var Re + var Im) / n)``; a spread whose square overflows
        gives ``inf``.
        """
        mean = samples.mean(axis=0)
        with np.errstate(over="ignore"):
            stderr = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
        if mean.ndim == 0:
            return cls(float(mean), float(stderr))
        return cls(mean, stderr)


_OMEGA = math.sqrt(0.125) * (1 + 1j)      # w = e^{i pi/4}/2, Re w == Im w


def _gue_columns(gen: np.random.Generator, m: int, d: int,
                 cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` (ascending) of ``m`` GUE draws ``V = w g + conj(w) g^T``,
    ``V[:, :, cols]`` as ``(m, d, s)``, from the ``2 s d - s^2`` normals of ``g``
    they read instead of ``d^2``.  Matrix ``i`` takes one row of
    ``gen.standard_normal``: first ``g_{j, cols[c]}`` for ``j < d``, ``c < s``
    (the columns, row-major), then ``g_{cols[c], t}`` for ``t`` outside ``cols``
    (the rest of their rows, ascending), so ``cols = range(d)`` reads ``g`` as
    ``gen.standard_normal((m, d, d))``.  The rows ``g_{cols[c], :}`` take one
    scatter for every ``cols``: the entries in ``cols`` from the columns, the
    rest from the tail, which the full support leaves empty.
    ``Re V_jk = (g_jk + g_kj)/sqrt(8)`` and
    ``Im V_jk = (g_jk - g_kj)/sqrt(8)`` are independent with variance 1/4, and
    for ``j, k`` in ``cols``, ``V_kk = g_kk/sqrt(2)`` is real and
    ``V_kj = conj(V_jk)`` by the same float operations.  Matrix ``i`` reads
    only its own row, so slices of a block equal one draw."""
    s = len(cols)
    x = gen.standard_normal((m, (2 * d - s) * s))
    col = x[:, :d * s].reshape(m, d, s)            # g_{j, cols[c]}
    row = np.empty((m, s, d))                      # g_{cols[c], j}
    row[:, :, cols] = col[:, cols]
    row[:, :, np.delete(np.arange(d), cols)] = x[:, d * s:].reshape(m, s, d - s)
    return _OMEGA * col + _OMEGA.conjugate() * row.transpose(0, 2, 1)


def _gue_matrix(d: int, gen: np.random.Generator) -> np.ndarray:
    """One GUE draw as a complex ndarray; Hermitian exactly by construction."""
    return _gue_columns(gen, 1, d, np.arange(d))[0]


@functools.cache
def _dsterf():
    """LAPACK ``dsterf`` as ``f(diag, off)``, or None where it is missing.

    Looked up once, at the first spectrum, through numpy's linalg extension,
    so it is the library that ``eigvalsh`` calls: the OpenBLAS of numpy's
    wheels, which exports it with 64-bit integers as ``scipy_dsterf_64_``.
    ``f`` returns the ascending eigenvalues of the real symmetric tridiagonal
    matrix with diagonal ``diag`` and off-diagonal ``off`` (both left intact)
    and raises :class:`NumericalError` where ``dsterf`` reports ``info != 0``.
    """
    import ctypes
    from numpy.linalg import _umath_linalg
    from .exceptions import NumericalError
    try:
        routine = ctypes.CDLL(_umath_linalg.__file__).scipy_dsterf_64_
    except (OSError, AttributeError):
        return None
    int_p = ctypes.POINTER(ctypes.c_int64)
    routine.argtypes = [int_p, ctypes.c_void_p, ctypes.c_void_p, int_p]
    routine.restype = None

    def sterf(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
        # Contiguous float64 copies, since dsterf overwrites both.
        w, e = np.array(diag, dtype=np.float64), np.array(off, dtype=np.float64)
        if w.ndim != 1 or e.shape != (max(len(w) - 1, 0),):
            raise ValueError("the off-diagonal must be one shorter than the diagonal")
        info = ctypes.c_int64()
        routine(ctypes.byref(ctypes.c_int64(len(w))), w.ctypes.data,
                e.ctypes.data, ctypes.byref(info))
        if info.value != 0:
            raise NumericalError(f"LAPACK dsterf failed (info = {info.value})")
        return w
    return sterf


def _tridiagonal_eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric tridiagonal matrix with
    diagonal ``diag`` and off-diagonal ``off``, in ``O(n^2)`` time and
    ``O(n)`` memory: the one tridiagonal eigensolve of the package.

    It is LAPACK ``dsterf`` (:func:`_dsterf`), or ``eigvalsh`` of the dense
    matrix where that is missing.  ``eigvalsh`` runs ``dsytrd`` and then
    ``dsterf``, and on a tridiagonal input every Householder reflector of
    ``dsytrd`` is the identity, so both routes give the same bits with the
    same LAPACK.
    """
    sterf = _dsterf()
    if sterf is None:
        return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    return sterf(diag, off)


def _gue_spectrum(gen: np.random.Generator, d: int) -> np.ndarray:
    """Ascending eigenvalues of one GUE draw, from its tridiagonal form.

    Householder reduction of a GUE matrix leaves a real symmetric
    tridiagonal matrix with the same spectrum: an ``N(0, 1/2)`` diagonal and
    off-diagonal entries ``sqrt(chi^2_{2k}/4)`` for ``k = d-1, ..., 1``
    (Dumitriu & Edelman, J. Math. Phys. 43, 5830 (2002), at beta = 2).  So
    one draw costs ``2d - 1`` variates and one real tridiagonal eigensolve
    (:func:`_tridiagonal_eigvalsh`) instead of ``d^2`` variates and a
    complex dense one.
    """
    diag = np.sqrt(0.5) * gen.standard_normal(d)
    off = np.sqrt(gen.chisquare(2.0 * np.arange(d - 1, 0, -1)) / 4.0)
    return _tridiagonal_eigvalsh(diag, off)


def _gue_spectra(gen: np.random.Generator, m: int, d: int) -> np.ndarray:
    """``(m, d)`` tridiagonal spectra drawn one after another from ``gen``."""
    return np.stack([_gue_spectrum(gen, d) for _ in range(m)])


def sample_gue(d: int, rng: RngStream) -> np.ndarray:
    """Draw one ``d x d`` GUE matrix under the exp(-tr X^2) convention."""
    return _gue_matrix(_check_int("dimension", d, 1), rng.sample_generator())


# Largest d whose Haar draws take the Gram-Schmidt route.  The einsum calls
# of that route grow as d^3 to d^4 per sample, while the per-matrix LAPACK QR
# and BLAS calls cost mostly their overhead.  At 256 samples per block (2-core
# AVX-512 Xeon), Gram-Schmidt was 1.7-4.5x faster at d = 2-4, 1.3-1.8x at 5
# and 6, mixed at 8, and 1.7-5x slower at 16 and 32.
_GS_MAX_DIM = 4


def _haar_block(gen: np.random.Generator, m: int, d: int) -> np.ndarray:
    """``m`` Haar unitaries as ``(m, d, d)``: the Q factors, with a positive
    real R diagonal, of Ginibre matrices ``(a + ib)/sqrt(2)``, each from one
    ``(2, d, d)`` draw.  That factor is Haar-distributed (Mezzadri, Notices
    AMS 54, 592 (2007)).  Up to ``_GS_MAX_DIM`` it comes from
    :func:`_gram_schmidt` and the result is a view of a sample-last stack;
    above, from the stacked LAPACK QR with R's diagonal phases made positive.
    Both factor matrix by matrix, so no unitary depends on its block."""
    g = gen.standard_normal((m, 2, d, d))
    if d <= _GS_MAX_DIM:
        return np.moveaxis(_gram_schmidt(g), -1, 0)
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Sample-last ``(d, d, m)`` Q factors of the ``m`` matrices
    ``g[:, 0] + i g[:, 1]`` of ``g`` (``(m, 2, d, d)``), by classical
    Gram-Schmidt applied twice to each column.

    Gram-Schmidt divides each column by its norm, so the R diagonal is real
    and positive: the Q of a Ginibre matrix, Haar-distributed.  A positive
    scale leaves it unchanged, so the ``1/sqrt(2)`` of the Ginibre law is
    not applied.  One pass loses orthogonality in proportion to the square
    of the condition number; the second restores it to working precision
    (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 1069 (2005)).
    Every step is elementwise or an einsum over a matrix index, so each
    sample's bits do not depend on ``m``."""
    m, _, d, _ = g.shape
    q = np.empty((d, d, m), dtype=complex)
    q.real = g[:, 0].transpose(1, 2, 0)
    q.imag = g[:, 1].transpose(1, 2, 0)
    for j in range(d):
        col, done = q[:, j], q[:, :j]
        if j:
            done_conj = done.conj()
            for _ in range(2):
                col -= np.einsum("iks,ks->is", done,
                                 np.einsum("iks,is->ks", done_conj, col))
        col /= np.sqrt(np.einsum("is,is->s", col.conj(), col).real)
    return q


def _haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    return _haar_block(gen, 1, d)[0]


def sample_haar_unitary(d: int, rng: RngStream) -> np.ndarray:
    """Draw a Haar-distributed unitary matrix."""
    return _haar_unitary(_check_int("dimension", d, 1), rng.sample_generator())


def _conjugated(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``U X U^dagger`` of every sample of a sample-last ``(d, d, m)`` stack."""
    return np.einsum("iks,lks->ils", np.einsum("ijs,jk->iks", u, x), u.conj())


def _haar_moment_block(gen: np.random.Generator, m: int, x1: np.ndarray,
                       *x23: np.ndarray) -> np.ndarray:
    """``U X1 U^dagger`` of ``m`` Haar unitaries as ``(m, d, d)``, or, given
    ``X2, X3``, ``(U X1 U^dagger) X2 (U X3 U^dagger)``, whose first factor it is."""
    d = x1.shape[0]
    u = _haar_block(gen, m, d)
    if d > _GS_MAX_DIM:
        udag = np.swapaxes(u.conj(), -1, -2)
        out = u @ x1 @ udag
        return out @ x23[0] @ u @ x23[1] @ udag if x23 else out
    u = np.moveaxis(u, 0, -1)                      # sample-last
    out = _conjugated(u, x1)
    if x23:
        left = np.einsum("ijs,jk->iks", out, x23[0])
        out = np.einsum("iks,kls->ils", left, _conjugated(u, x23[1]))
    return np.moveaxis(out, -1, 0)


def _haar_moment(n_samples: int, rng: RngStream, *xs) -> tuple[np.ndarray, np.ndarray]:
    """``(mean, stderr)`` of :func:`_haar_moment_block` over the operators ``xs``."""
    ms = [as_matrix(x) for x in xs]
    _check_int("dimension", ms[0].shape[0], 1)
    if any(m.shape[0] != ms[0].shape[0] for m in ms):
        raise ValueError("operators must share one dimension")
    est = EnsembleEstimate.from_samples(
        _pool.gather_samples(_haar_moment_block, n_samples, rng, 1, *ms))
    return est.mean, est.stderr


def haar_second_moment(x, n_samples: int, rng: RngStream
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of ``U X U^dagger`` over Haar unitaries.

    Returns ``(mean, stderr)`` with an entrywise standard error; the exact
    average is ``tr(X) 1/d`` (see :func:`haar_second_moment_exact`).
    """
    return _haar_moment(n_samples, rng, x)


def haar_second_moment_exact(x) -> np.ndarray:
    xm = as_matrix(x)
    d = xm.shape[0]
    return np.trace(xm) / d * np.eye(d, dtype=complex)


def haar_fourth_moment(x1, x2, x3, n_samples: int, rng: RngStream
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of ``U X1 U^dagger X2 U X3 U^dagger`` over Haar unitaries."""
    return _haar_moment(n_samples, rng, x1, x2, x3)


def haar_fourth_moment_exact(x1, x2, x3) -> np.ndarray:
    """Closed form of the Haar average ``<U X1 U^dagger X2 U X3 U^dagger>``.

    Equals ``a tr(X2) 1 + b X2`` with
    ``a = [d tr(X1 X3) - tr X1 tr X3] / (d (d^2-1))`` and
    ``b = [d tr X1 tr X3 - tr(X1 X3)] / (d (d^2-1))``; undefined at d = 1.
    """
    m1, m2, m3 = as_matrix(x1), as_matrix(x2), as_matrix(x3)
    d = _check_int("dimension", m1.shape[0], 2)     # the denominator vanishes at d = 1
    t13 = np.einsum("ij,ji->", m1, m3)
    t1, t3 = np.trace(m1), np.trace(m3)
    den = d * (d * d - 1)
    a = (d * t13 - t1 * t3) / den
    b = (d * t1 * t3 - t13) / den
    return a * np.trace(m2) * np.eye(d, dtype=complex) + b * m2


def _hermite_sums(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """``phi_{n-1}(x)`` and ``sum_{l<n} phi_l(x)^2`` for a float array ``x``;
    n >= 1.

    One recurrence ``phi_{m+1} = x sqrt(2/(m+1)) phi_m - sqrt(m/(m+1))
    phi_{m-1}`` keeps the running sum.  Where ``phi_0 = pi^(-1/4)
    exp(-x^2/2)`` would fall below ``exp(-700)``, it starts there and carries
    the rest as a log scale, as ``specfun._laguerre_sums`` does.  Every
    ``every`` steps a pair past ``2^256`` is divided by it: a step grows the
    pair by at most ``sqrt(2) reach + 1``, so nothing passes ``2^480`` between
    looks.  Past ``reach = sqrt(2n + 1) + 40`` every ``phi_l`` decays below
    ``exp(-800)`` (faster than ``exp(-(|x| - sqrt(2n + 1))^2/2)`` beyond its
    turning point), so there the start stays ``exp(-x^2/2)``, 0.  Below
    ``|x| = 37.4`` nothing is scaled, and the bits are the plain recurrence's.
    """
    half = 0.5 * x * x
    reach = math.sqrt(2.0 * n + 1.0) + 40.0
    log_scale = -np.where(np.abs(x) < reach, np.maximum(half - 700.0, 0.0), 0.0)
    phi_prev, phi = np.zeros_like(x), np.pi ** -0.25 * np.exp(-half - log_scale)
    total = phi * phi
    every = max(1, int(224 / math.log2(math.sqrt(2.0) * reach + 1.0)))
    for m in range(n - 1):
        if m % every == 0:
            big = np.maximum(np.abs(phi), np.abs(phi_prev)) > 2.0 ** 256
            if big.any():
                f = np.where(big, 2.0 ** -256, 1.0)
                phi, phi_prev, total = phi * f, phi_prev * f, total * f * f
                log_scale = log_scale + big * (256 * math.log(2.0))
        phi_prev, phi = phi, x * math.sqrt(2.0 / (m + 1)) * phi - math.sqrt(
            m / (m + 1)) * phi_prev
        total += phi * phi
    scale = np.exp(log_scale)
    return phi * scale, total * scale * scale


def hermite_phi(l: int, x):
    """Normalized Hermite function ``exp(-x^2/2) H_l(x) / sqrt(sqrt(pi) 2^l l!)``,
    finite and accurate at every ``x`` (:func:`_hermite_sums`)."""
    phi = _hermite_sums(_check_int("degree", l, 0) + 1, np.asarray(x, dtype=float))[0]
    return phi if phi.ndim else float(phi)


def gue_level_density(v, d: int):
    """GUE-averaged eigenvalue density ``sum_{l<d} phi_l(v)^2``.

    Nonnegative and integrates to ``d`` over the real line.  The running sum
    of one scaled Hermite-function recurrence (:func:`_hermite_sums`), so it
    stays accurate at every dimension and every ``v``, inside the
    semicircle and far out in its tails.
    """
    rho = _hermite_sums(_check_int("dimension", d, 1), np.asarray(v, dtype=float))[1]
    return rho if rho.ndim else float(rho)


def _trace_square_block(gen: np.random.Generator, m: int, d: int) -> np.ndarray:
    """``(tr V)^2`` of ``m`` GUE draws from the ``d`` normals of each diagonal,
    ``tr V = sum_j g_jj/sqrt(2)``: the off-diagonal normals are never read."""
    traces = [(math.sqrt(0.5) * gen.standard_normal((hi - lo, d))).sum(axis=1)
              for lo, hi in _pool.row_slices(m, d)]
    return np.concatenate(traces) ** 2


def gue_trace_square_mc(d: int, n_samples: int, rng: RngStream) -> EnsembleEstimate:
    """Monte-Carlo estimate of ``<(tr V)^2>`` over GUE.

    Kept as a sampler on purpose: two closed-form candidates (0 and d/2)
    circulate for this moment depending on how the connected two-point
    integral is summed, and the decoherence-rate suite adjudicates between
    them empirically instead of hard-coding either.
    """
    vals = _pool.gather_samples(_trace_square_block, n_samples, rng, 1,
                                _check_int("dimension", d, 1))
    return EnsembleEstimate.from_samples(vals)

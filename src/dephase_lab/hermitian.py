"""Dense complex Hermitian linear algebra.

An operator is a plain ``numpy`` array: either a ``d x d`` matrix, or a real
vector of length ``d`` holding the diagonal of an operator that is diagonal
in the computational basis.  Every function here picks its path by ``ndim``;
the vector form keeps k-body rate evaluations at ``O(2**n)`` cost instead of
``O(4**n)``.  A state is a plain array too: a unit vector is a pure state
and a square matrix is a mixed one.  :func:`as_state` checks a state once
at each public entry point.

All tolerances below are defaults and can be overridden per call; matrix
comparisons are made relative to the spectral norm so they are scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, HermiticityError, NumericalError

HERMITICITY_RTOL = 1e-12
EIG_RESIDUAL_RTOL = 1e-10
UNITARITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(E) U^dagger``."""
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _gibbs_log_weights(energies: np.ndarray, beta: float,
                       log_mult: np.ndarray | None = None
                       ) -> tuple[np.ndarray, float]:
    """Gibbs log-probabilities ``log p_k`` and ``ln Z`` of a spectrum.

    ``log_mult`` adds the log-multiplicity of each level.  The partition sum
    is max-shifted before exponentiation, so large ``beta`` drives the
    weights to the ground-state limit instead of underflowing.  ``log p_k``
    is taken from the shifted values, never through ``ln Z``: at large
    ``beta`` the shift is large and ``ln Z - shift`` would lose its digits.
    """
    log_w = -beta * energies
    if log_mult is not None:
        log_w = log_w + log_mult
    shift = log_w.max()
    log_w = log_w - shift
    log_sum = math.log(np.exp(log_w).sum())
    return log_w - log_sum, shift + log_sum


def as_matrix(op: np.ndarray) -> np.ndarray:
    """Dense complex matrix of an operator (a diagonal vector is expanded)."""
    op = np.asarray(op)
    if op.ndim == 1:
        return np.diag(op.astype(complex))
    return np.asarray(op, dtype=complex)


def apply_operator(op: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply an operator array to a vector or to a batch of row vectors.

    For a batch argument of shape ``(m, d)`` the operator acts on each row.
    """
    if op.ndim == 1:
        return vecs * op
    if vecs.ndim == 1:
        return op @ vecs
    return vecs @ op.T


def as_state(state: np.ndarray) -> np.ndarray:
    """Checked complex array of a state: a vector is pure, a matrix is mixed.

    A pure state must have unit norm.  A density matrix must be square,
    Hermitian, of unit trace and positive semidefinite.  Any other shape
    raises ``ValueError``.
    """
    a = np.asarray(state, dtype=complex)
    if a.ndim == 1:
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > TRACE_ATOL:
            raise ValueError(f"pure state norm {nrm} is not 1")
        return a
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a state must be a vector or a square matrix, "
                         f"got shape {a.shape}")
    if np.abs(a - a.conj().T).max() > HERMITICITY_RTOL * max(1.0, np.abs(a).max()):
        raise HermiticityError("density matrix is not Hermitian")
    tr = complex(np.trace(a)).real
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    if np.linalg.eigvalsh(a).min() < -PSD_ATOL:
        raise ValueError("density matrix is not positive semidefinite")
    return a


def eig_hermitian(h: np.ndarray, *, validate: bool = True,
                  tol: float = HERMITICITY_RTOL,
                  residual_rtol: float = EIG_RESIDUAL_RTOL) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix or of a diagonal vector.

    Eigenvalues are returned in ascending order.  The residual contract
    ``||H v_k - E_k v_k||_2 <= residual_rtol * d * ||H||`` and the unitarity
    of the eigenvector matrix are verified; a violation raises
    :class:`NumericalError`.
    """
    h = np.asarray(h)
    if h.ndim == 1:
        d = len(h)
        order = np.argsort(h, kind="stable")
        vecs = np.zeros((d, d), dtype=complex)
        vecs[order, np.arange(d)] = 1.0
        return SpectralData(h[order].copy(), vecs)
    m = np.asarray(h, dtype=complex)
    if validate:
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > tol * scale:
            raise HermiticityError("eig_hermitian requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(m)
    d = m.shape[0]
    norm = float(np.abs(vals).max()) if d else 0.0
    resid = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    if norm > 0 and resid.max() > residual_rtol * d * norm:
        raise NumericalError(f"eigendecomposition residual {resid.max():.3e} out of contract")
    if np.abs(vecs.conj().T @ vecs - np.eye(d)).max() > UNITARITY_ATOL:
        raise NumericalError("eigenvector matrix failed the unitarity check")
    return SpectralData(vals, vecs)


def purity(rho: np.ndarray) -> float:
    """tr(rho^2); equals 1 for a pure state and 1/d for the maximally mixed one."""
    rho = as_state(rho)
    if rho.ndim == 1:
        return 1.0
    return float(np.sum(np.abs(rho) ** 2))


def modified_covariance(rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> complex:
    """Covariance-like functional  tr(rho^2 X Y) - tr(rho X rho Y).

    Real and nonnegative for X = Y Hermitian; on a pure state it reduces to
    the ordinary covariance <XY> - <X><Y>, so ``modified_covariance(psi, x, x)``
    is the variance of ``x``.  Two diagonal vectors take an ``O(d)`` (pure)
    or ``O(d^2)`` (mixed) path.
    """
    return _modified_covariance(as_state(rho), np.asarray(x), np.asarray(y))


def _modified_covariance(r: np.ndarray, x: np.ndarray, y: np.ndarray) -> complex:
    """:func:`modified_covariance` of a state already checked by :func:`as_state`."""
    if not (r.shape[0] == len(x) == len(y)):
        raise DimensionMismatchError("state and operator dimensions differ")
    if r.ndim == 1:
        if x.ndim == y.ndim == 1:
            p = np.abs(r) ** 2
            return complex((x * y) @ p - (x @ p) * (y @ p))
        xv = apply_operator(x, r)
        yv = apply_operator(y, r)
        return complex(np.vdot(xv, yv) - np.vdot(r, xv) * np.vdot(r, yv))
    if x.ndim == y.ndim == 1:
        r2diag = np.real(np.einsum("ij,ji->i", r, r))
        t1 = complex((r2diag * x) @ y)
        t2 = complex(np.einsum("ij,j,ji,i->", r, x + 0j, r, y + 0j))
        return t1 - t2
    xm, ym = as_matrix(x), as_matrix(y)
    rx = r @ xm
    return complex(np.trace(r @ rx @ ym) - np.trace(rx @ r @ ym))


def spectral_norm(x: np.ndarray) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix or diagonal vector."""
    x = np.asarray(x)
    if x.ndim == 1:
        return float(np.abs(x).max())
    return float(np.abs(np.linalg.eigvalsh(np.asarray(x, dtype=complex))).max())

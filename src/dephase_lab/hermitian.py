"""Dense complex Hermitian linear algebra.

An operator is a plain ``numpy`` array: either a ``d x d`` matrix, or a real
vector of length ``d`` holding the diagonal of an operator that is diagonal
in the computational basis.  Every function here picks its path by ``ndim``;
the vector form keeps k-body rate evaluations at ``O(2**n)`` cost instead of
``O(4**n)``.  :class:`DensityState` holds a state either as a pure vector
or as a mixed density matrix.

All tolerances below are defaults and can be overridden per call; matrix
comparisons are made relative to the spectral norm so they are scale-free.
"""

from __future__ import annotations

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


class DensityState:
    """Quantum state stored either as a pure vector or a mixed density matrix.

    Invariants checked on construction: unit trace (or unit norm), Hermiticity
    and positive semidefiniteness of the mixed form.
    """

    __slots__ = ("vector", "rho")

    def __init__(self, *, vector: np.ndarray | None = None,
                 rho: np.ndarray | None = None, validate: bool = True):
        if (vector is None) == (rho is None):
            raise ValueError("provide exactly one of vector= or rho=")
        if vector is not None:
            v = np.asarray(vector, dtype=complex)
            if v.ndim != 1:
                raise ValueError("pure state must be a one-dimensional vector")
            if validate:
                nrm = float(np.linalg.norm(v))
                if abs(nrm - 1.0) > TRACE_ATOL:
                    raise ValueError(f"pure state norm {nrm} is not 1")
            self.vector = v
            self.rho = None
        else:
            r = np.asarray(rho, dtype=complex)
            if validate:
                if np.abs(r - r.conj().T).max() > HERMITICITY_RTOL * max(1.0, np.abs(r).max()):
                    raise HermiticityError("density matrix is not Hermitian")
                tr = complex(np.trace(r)).real
                if abs(tr - 1.0) > TRACE_ATOL:
                    raise ValueError(f"density matrix trace {tr} is not 1")
                if np.linalg.eigvalsh(r).min() < -PSD_ATOL:
                    raise ValueError("density matrix is not positive semidefinite")
            self.vector = None
            self.rho = r

    @classmethod
    def pure(cls, vector: np.ndarray, *, normalize: bool = False) -> "DensityState":
        v = np.asarray(vector, dtype=complex)
        if normalize:
            v = v / np.linalg.norm(v)
        return cls(vector=v)

    @classmethod
    def mixed(cls, rho: np.ndarray, *, validate: bool = True) -> "DensityState":
        return cls(rho=rho, validate=validate)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(rho=np.eye(dim, dtype=complex) / dim, validate=False)

    @classmethod
    def thermal(cls, energies: np.ndarray, beta: float,
                eigenvectors: np.ndarray | None = None) -> "DensityState":
        """Gibbs state of the given spectrum, diagonal in the supplied basis."""
        e = np.asarray(energies, dtype=float)
        w = np.exp(-beta * (e - e.min()))
        w /= w.sum()
        if eigenvectors is None:
            rho = np.diag(w.astype(complex))
        else:
            u = np.asarray(eigenvectors, dtype=complex)
            rho = (u * w) @ u.conj().T
        return cls(rho=rho, validate=False)

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @property
    def dim(self) -> int:
        return self.vector.shape[0] if self.is_pure else self.rho.shape[0]

    def matrix(self) -> np.ndarray:
        """Density matrix form regardless of the internal representation."""
        if self.is_pure:
            return np.outer(self.vector, self.vector.conj())
        return self.rho


def as_density(state: DensityState | np.ndarray) -> DensityState:
    """Coerce an array argument (vector -> pure, matrix -> mixed) to a state."""
    if isinstance(state, DensityState):
        return state
    a = np.asarray(state, dtype=complex)
    if a.ndim == 1:
        return DensityState(vector=a)
    return DensityState(rho=a)


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


def purity(rho: DensityState | np.ndarray) -> float:
    """tr(rho^2); equals 1 for a pure state and 1/d for the maximally mixed one."""
    state = as_density(rho)
    if state.is_pure:
        return 1.0
    return float(np.sum(np.abs(state.rho) ** 2))


def modified_covariance(rho: DensityState | np.ndarray, x: np.ndarray,
                        y: np.ndarray) -> complex:
    """Covariance-like functional  tr(rho^2 X Y) - tr(rho X rho Y).

    Real and nonnegative for X = Y Hermitian; on a pure state it reduces to
    the ordinary covariance <XY> - <X><Y>, so ``modified_covariance(psi, x, x)``
    is the variance of ``x``.  Two diagonal vectors take an ``O(d)`` (pure)
    or ``O(d^2)`` (mixed) path.
    """
    state = as_density(rho)
    x, y = np.asarray(x), np.asarray(y)
    if not (state.dim == len(x) == len(y)):
        raise DimensionMismatchError("state and operator dimensions differ")
    if state.is_pure:
        v = state.vector
        if x.ndim == y.ndim == 1:
            p = np.abs(v) ** 2
            return complex((x * y) @ p - (x @ p) * (y @ p))
        xv = apply_operator(x, v)
        yv = apply_operator(y, v)
        return complex(np.vdot(xv, yv) - np.vdot(v, xv) * np.vdot(v, yv))
    r = state.rho
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

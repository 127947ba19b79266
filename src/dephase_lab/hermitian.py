"""Dense complex Hermitian linear algebra, and every variance a rate reads.

An operator is a plain ``numpy`` array: either a ``d x d`` matrix, or a real
vector of length ``d`` holding the diagonal of an operator that is diagonal
in the computational basis.  Every function here picks its path by ``ndim``;
the vector form keeps k-body rate evaluations at ``O(2**n)`` cost instead of
``O(4**n)``.  A state is a plain array too: a unit vector is a pure state
and a square matrix is a mixed one.  :func:`as_state` checks a state once
at each public entry point.  The tolerances below are fixed; the
Hermiticity check scales with the largest entry.

Every rate reads one centred variance kernel per kind of state, the modified
covariance of a state or ``4 gamma var_p(E)`` of Gibbs populations, so no
constant shift of an operator cancels a rate's digits.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionMismatchError, HermiticityError

HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10


def _gibbs_log_weights(energies: np.ndarray, beta: float | np.ndarray,
                       log_mult: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs log-probabilities ``log p_k`` and ``ln Z`` of spectra on the last axis.

    ``beta`` broadcasts against ``energies`` (a column of betas against a
    stack of spectra takes one call); ``log_mult`` adds each level's
    log-multiplicity.  Each sum is max-shifted, so large ``beta`` gives the
    ground-state limit instead of underflowing, and ``log p_k`` never goes
    through ``ln Z``, whose digits the shift would take.
    """
    log_w = -beta * energies
    if log_mult is not None:
        log_w = log_w + log_mult
    shift = log_w.max(axis=-1, keepdims=True)
    log_w = log_w - shift
    sums = np.exp(log_w).sum(axis=-1, keepdims=True)
    log_sum = np.array([math.log(s) for s in sums.flat]).reshape(sums.shape)
    return log_w - log_sum, (shift + log_sum)[..., 0]


def _energy_dephasing_rate(p: np.ndarray, energies: np.ndarray, gamma: float):
    """``4 gamma var_p(E)`` and ``<E>`` of populations ``p``, over the last axis;
    a stacked ``(1, d) @ (d, 1)`` moment equals one row's ``p @ E``.  The
    variance is ``sum p (E - <E>)^2``, so a constant shift cannot cancel it."""
    row = p[..., None, :]
    m1 = (row @ energies[..., :, None])[..., 0, 0]
    var = (row @ ((energies - m1[..., None]) ** 2)[..., :, None])[..., 0, 0]
    return 4.0 * gamma * var, m1


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

    Every entry must be finite.  A pure state must have unit norm.  A
    density matrix must be square, Hermitian, of unit trace and positive
    semidefinite.  Any other shape raises ``ValueError``.
    """
    a = np.asarray(state, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("a state must have finite entries")
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


def _purity(r: np.ndarray):
    """tr(rho^2) = sum |rho_ij|^2 of a checked state or a stack; 1 if pure."""
    return 1.0 if r.ndim == 1 else np.sum(np.abs(r) ** 2, axis=(-2, -1))


def purity(rho: np.ndarray) -> float:
    """tr(rho^2); equals 1 for a pure state and 1/d for the maximally mixed one."""
    return float(_purity(as_state(rho)))


def modified_covariance(rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> complex:
    """Covariance-like functional  tr(rho^2 X Y) - tr(rho X rho Y).

    Real and nonnegative for X = Y Hermitian; on a pure state it reduces to
    the ordinary covariance <XY> - <X><Y>, so ``modified_covariance(psi, x, x)``
    is the variance of ``x``.  It is unchanged by ``X -> X + c 1``.  Two
    diagonal vectors take an ``O(d)`` (pure) or ``O(d^2)`` (mixed) path.
    """
    return complex(_modified_covariance(as_state(rho), np.asarray(x), np.asarray(y)))


def _modified_covariance(r: np.ndarray, x: np.ndarray, y: np.ndarray):
    """:func:`modified_covariance`, centred, of a state checked by :func:`as_state`;
    on a mixed state, dense operators may carry a leading stack axis."""
    if not (r.shape[0] == x.shape[-1] == y.shape[-1]):
        raise DimensionMismatchError("state and operator dimensions differ")
    if r.ndim == 1:             # <(X - <X>) psi, (Y - <Y>) psi>
        xv, yv = apply_operator(x, r), apply_operator(y, r)
        return np.vdot(xv - np.vdot(r, xv) * r, yv - np.vdot(r, yv) * r)
    if x.ndim == y.ndim == 1:   # 1/2 sum_ij |rho_ij|^2 (x_i - x_j)(y_i - y_j)
        return 0.5 * (np.abs(r) ** 2 * (x[:, None] - x) * (y[:, None] - y)).sum()
    # tr(rho^2 X Y) - tr(rho X rho Y) of X - tr(rho X) 1 and Y - tr(rho Y) 1
    xc, yc = (a - np.einsum("ij,...ji->...", r, a)[..., None, None] * np.eye(len(r))
              for a in (as_matrix(x), as_matrix(y)))
    rx = r @ xc
    return np.einsum("...ij,...ji->...", r @ rx - rx @ r, yc)


def spectral_norm(x: np.ndarray) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix or diagonal vector."""
    x = np.asarray(x)
    if x.ndim == 1:
        return float(np.abs(x).max())
    return float(np.abs(np.linalg.eigvalsh(np.asarray(x, dtype=complex))).max())

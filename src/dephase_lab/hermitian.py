"""Dense complex Hermitian linear algebra, and every variance a rate reads.

An operator is a plain ``numpy`` array: either a ``d x d`` matrix, or a real
vector of length ``d`` holding the diagonal of an operator that is diagonal
in the computational basis.  Every function here picks its path by ``ndim``;
the vector form keeps k-body rate evaluations at ``O(2**n)`` cost instead of
``O(4**n)``.  A state is a plain array too: a unit vector is a pure state
and a square matrix is a mixed one.  :func:`as_state` checks a state once
at each public entry point, and :func:`as_operator` a channel operator, a
Hamiltonian or a spectrum.  The tolerances below are fixed; the
Hermiticity check, written once in :func:`as_operator`, scales with the
largest entry.

Every rate reads one centred variance kernel per kind of state, the modified
covariance of a state or ``4 gamma var_p(E)`` of Gibbs populations, so no
constant shift of an operator cancels a rate's digits.  The one exception is
the pure-state path of a sampled GUE-channel rate (``rates._rate_gue_block``),
which sums ``|V psi - mu psi|^2`` itself, centred the same way, so that
``rate-gue`` calls no BLAS.

Every reduction to one scalar per row, a dot product or a moment, is an
``einsum``, which calls no BLAS kernel chosen per CPU, so its bits do not
follow the OpenBLAS core type.  A row of a stack sums as that row alone does
while it fits ``einsum``'s 8192-element buffer: the ``2^10`` sampling cap and
trajectory states up to ``2^12`` complex entries.  BLAS runs only the true
matrix products, ``O(d^3)`` work that its kernels make fast: a dense operator
on a batch of states, the trajectory outer-product sums, the RK4 step, the
mixed-state covariance and the Haar moments above ``d = 4``.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionMismatchError, HermiticityError

HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10


def _gibbs_weights(energies: np.ndarray, beta: float | np.ndarray,
                   log_mult: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs amplitudes ``w_k = sqrt(p_k)`` and ``ln Z`` of spectra on the last axis.

    The one Gibbs exponent of the package: every thermal weight, ``w`` of a
    thermofield double or ``p = w ** 2`` of a Gibbs state, is
    ``exp(log p / 2)`` from here.  ``beta`` broadcasts against ``energies``
    (a column of betas against a stack of spectra takes one call);
    ``log_mult`` adds each level's log-multiplicity.  Each sum is
    max-shifted, so large ``beta`` gives the ground-state limit instead of
    underflowing, and ``log p_k`` never goes through ``ln Z``, whose digits
    the shift would take.  A spectrum where ``beta E`` passes a double is
    measured from its lowest level, ``E_0``, with ``-beta E_0`` put back into
    ``ln Z`` (where it may overflow); every other one keeps its bits.
    """
    with np.errstate(over="ignore"):            # -beta E_0 may overflow ln Z
        finite = np.isfinite(-beta * energies).all(axis=-1, keepdims=True)
        ground = np.where(finite, 0.0, energies.min(axis=-1, keepdims=True))
        log_w = -beta * (energies - ground)         # E - 0.0 is E, bit for bit
        if log_mult is not None:
            log_w = log_w + log_mult
        shift = log_w.max(axis=-1, keepdims=True)
        log_w = log_w - shift
        sums = np.exp(log_w).sum(axis=-1, keepdims=True)
        log_sum = np.array([math.log(s) for s in sums.flat]).reshape(sums.shape)
        return np.exp(0.5 * (log_w - log_sum)), (shift + log_sum - beta * ground)[..., 0]


def _energy_dephasing_rate(p: np.ndarray, energies: np.ndarray, gamma: float):
    """``4 gamma var_p(E)`` of populations ``p``, over the last axis.  The
    variance is ``sum p (E - <E>)^2``, so a constant shift cannot cancel it."""
    m1 = np.einsum("...k,...k->...", p, energies)
    return 4.0 * gamma * np.einsum("...k,...k->...", p, (energies - m1[..., None]) ** 2)


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


def as_operator(op, name: str = "operator") -> np.ndarray:
    """Checked array of an operator, its dtype kept: a vector is the real
    diagonal of a diagonal operator, a matrix a Hermitian one.

    Every entry must be finite (else ``ValueError``) and the array must be a
    vector or a square matrix (else ``ValueError``).  ``A`` must equal
    ``A^dagger`` to ``HERMITICITY_RTOL`` times its largest entry (at least
    1), else :class:`HermiticityError`; a vector is its own transpose, so
    that is the test of a real diagonal.  ``name`` opens each message.
    """
    a = np.asarray(op)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must have finite entries")
    if a.ndim not in (1, 2) or a.shape[0] != a.shape[-1]:
        raise ValueError(f"{name} must be a 1-D array or a square 2-D one, "
                         f"got shape {a.shape}")
    if (np.abs(a - a.conj().T).max(initial=0.0)
            > HERMITICITY_RTOL * max(1.0, np.abs(a).max(initial=0.0))):
        raise HermiticityError(f"{name} is not Hermitian")
    return a


def as_state(state: np.ndarray) -> np.ndarray:
    """Checked complex array of a state: a vector is pure, a matrix is mixed.

    Every entry must be finite.  A pure state must have unit norm.  A
    density matrix must be square, Hermitian (:func:`as_operator`), of
    unit trace and positive semidefinite.  Any other shape raises
    ``ValueError``.
    """
    a = np.asarray(state, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("a state must have finite entries")
    if a.ndim == 1:
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > TRACE_ATOL:
            raise ValueError(f"pure state norm {nrm} is not 1")
        return a
    as_operator(a, "a state")
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
        u = xv - np.einsum("i,i->", r.conj(), xv) * r
        return np.einsum("i,i->", u.conj(), yv - np.einsum("i,i->", r.conj(), yv) * r)
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

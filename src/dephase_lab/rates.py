"""Decoherence-rate calculators for Markovian dephasing channels.

The central quantity is the initial fractional purity decay rate of a state
under Hermitian Lindblad channels ``(gamma_mu, V_mu)``:

    D = 2 sum_mu gamma_mu [tr(rho^2 V_mu^2) - tr(rho V_mu rho V_mu)] / tr(rho^2),

which depends only on the initial state and the channels, not on a constant
shift of any ``V_mu``.  For a pure state it is ``2 sum_mu gamma_mu var(V_mu)``;
every rate here takes the bracket centred, from ``hermitian``: the pure-state
variance ``_pure_variance``, which the GUE estimator below also reads, or the
modified covariance of a mixed state.

For channels drawn from GUE two closed-form candidates exist for the
fixed-pure-state average.  They differ only through the value assigned to
the ensemble moment ``<(tr V)^2>``:

* ``<(tr V)^2> = 0``   gives  ``Gamma d^2/(d+1)``   (``specfun.rate_gue_haar``),
* ``<(tr V)^2> = d/2`` gives  ``Gamma (d - 1)``     (``specfun.rate_gue_wick``),

where ``Gamma`` is the summed channel rate.  The two disagree by
``Gamma/(d+1)``, so :func:`rate_gue_mc` keeps an unbiased Monte-Carlo
estimator around and the acceptance suite records which candidate the data
selects rather than assuming one.  For a pure state the estimator reads
``V psi``, so it draws only the columns of ``V`` on the support of ``psi``:
``2d - 1`` normals per channel for a basis state instead of ``d^2``.

Also here: diagonal k-body sigma^z-string operators (their bounds are closed
forms in ``specfun``), the two-body-random-ensemble (TBRE) bound, and the
all-to-all Ising (Lipkin-Meshkov-Glick type) thermal rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import log

import numpy as np

from . import _pool
from .exceptions import DimensionMismatchError
from .hermitian import (_energy_dephasing_rate, _gibbs_weights,
                        _modified_covariance, _pure_variance, _purity,
                        as_operator, as_state, spectral_norm)
from .ensembles import EnsembleEstimate, RngStream, _gue_columns
from .specfun import KBodySpec, _check_int, _check_real

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class LindbladChannel:
    """One dephasing channel: nonnegative finite rate and Hermitian operator.

    ``v`` is stored as the array that :func:`~dephase_lab.hermitian.as_operator`
    checks: a ``d x d`` matrix, or a length-``d`` real vector for an operator
    diagonal in the computational basis.
    """

    gamma: float
    v: np.ndarray

    def __post_init__(self):
        _check_real("channel rate", self.gamma)
        object.__setattr__(self, "v", as_operator(self.v, "channel operator"))


def _stiffness(h0: np.ndarray | None, channels: list[LindbladChannel]) -> float:
    """``||H0|| + sum gamma ||V||^2``, the scale of every step-size rule;
    ``h0=None`` counts as 0."""
    h_norm = 0.0 if h0 is None else spectral_norm(h0)
    return h_norm + sum(c.gamma * spectral_norm(c.v) ** 2 for c in channels)


def decoherence_rate(rho0: np.ndarray, channels: list[LindbladChannel]) -> float:
    """Initial purity-decay rate of ``rho0`` under Hermitian dephasing channels.

    Zero channels give 0; a maximally mixed state gives 0 for any channels.
    A channel of another dimension raises ``DimensionMismatchError``.
    """
    rho0 = as_state(rho0)
    return float(2.0 * sum(c.gamma * _modified_covariance(rho0, c.v)
                           for c in channels) / _purity(rho0))


def _rate_gue_block(gen: np.random.Generator, m: int, d: int, gamma: float,
                    state: np.ndarray) -> np.ndarray:
    """Rates of ``m`` GUE channels, drawn in row slices.  A pure state's is
    :func:`~dephase_lab.hermitian._pure_variance` of its rows ``V psi``, which
    read only the columns of ``V`` on the support of ``psi``, and only those
    are drawn (a mixed state reads every column).  Its sums are ``einsum``
    contractions, which call no BLAS kernel chosen per CPU; a row's sum is
    the same in any slice while it fits ``einsum``'s 8192-element buffer:
    2d real terms, so any ``d`` up to the ``2^10`` cap."""
    cols = np.flatnonzero(state) if state.ndim == 1 else np.arange(d)
    out = np.empty(m)
    for lo, hi in _pool.row_slices(m, (2 * d - len(cols)) * len(cols)):
        v = _gue_columns(gen, hi - lo, d, cols)
        out[lo:hi] = (_pure_variance(state, np.einsum("kjs,s->kj", v, state[cols]))
                      if state.ndim == 1 else _modified_covariance(state, v))
    return 2.0 * gamma * out / _purity(state)


# Old name of the block function, still wrapped by perfbench/tracer.py.
_rate_gue_chunk = _rate_gue_block


def rate_gue_mc(rho0: np.ndarray, gamma: float, d: int,
                n_samples: int, rng: RngStream, workers: int = 1
                ) -> EnsembleEstimate:
    """Monte-Carlo decoherence rate over GUE channels for a fixed state.

    One substream per block of samples, reduced in index order, so the
    estimate is reproducible for a given ``rng`` regardless of ``workers``.
    """
    _check_real("channel rate", gamma)
    rho0 = as_state(rho0)
    if rho0.shape[0] != _check_int("dimension", d, 1):
        raise DimensionMismatchError("state dimension differs from d")
    vals = _pool.gather_samples(_rate_gue_block, n_samples, rng, workers,
                                d, gamma, rho0)
    return EnsembleEstimate.from_samples(vals)


def build_kbody_operator(spec: KBodySpec) -> np.ndarray:
    """Diagonal of the all-to-all k-body sigma^z-string operator.

    The entry for a spin configuration ``s`` in ``{+1, -1}^n`` is
    ``epsilon * e_k(s_1, ..., s_n)`` with ``e_k`` the elementary symmetric
    polynomial, accumulated site by site through
    ``e_k(s_1..s_m) = e_k(s_1..s_{m-1}) + s_m e_{k-1}(s_1..s_{m-1})``.
    Bit ``l`` of the basis index clear means spin ``l`` up.
    """
    n, k = _check_int("qubit count n", spec.n, 1, 24), spec.k    # a 2^n diagonal
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    e = [np.ones(size)] + [np.zeros(size) for _ in range(k)]
    for site in range(n):
        s = 1.0 - 2.0 * ((idx >> site) & 1).astype(float)
        for j in range(min(site + 1, k), 0, -1):
            e[j] = e[j] + s * e[j - 1]
    return spec.epsilon * e[k]


def build_tbre_operator(n: int) -> np.ndarray:
    """Fixed TBRE Lindblad operator: sum of all nearest-neighbour Pauli pairs.

    A bond's nine pairs sum to ``S_l S_{l+1}`` with ``S = sigma^x + sigma^y +
    sigma^z``, so each bond is one Kronecker product; every entry is a small
    Gaussian integer, so the sum is exact.
    """
    dim = 1 << _check_int("spin count n", n, 1, 12)   # a dense 2^n operator
    s = PAULI["x"] + PAULI["y"] + PAULI["z"]
    v = np.zeros((dim, dim), dtype=complex)
    for l in range(n - 1):
        v += np.kron(np.kron(np.eye(1 << l), np.kron(s, s)), np.eye(dim >> (l + 2)))
    return v


def tbre_rate_and_bound(n: int, rho0: np.ndarray,
                        gamma: float) -> tuple[float, float]:
    """Decoherence rate of an ``n``-spin chain with random two-body couplings
    (TBRE, open boundaries) and its polynomial bound.

    The fluctuating part does not depend on the couplings: the Lindblad
    operator is the fixed sum of all nearest-neighbour Pauli pairs.  The
    bound is ``162 gamma (n-1)^2``, from ``2 gamma ||V||^2`` with
    ``||V|| <= 9 (n-1)``; the rate never exceeds it.
    """
    _check_int("spin count n", n, 2)
    rate = decoherence_rate(rho0, [LindbladChannel(gamma, build_tbre_operator(n))])
    return rate, 162.0 * gamma * (n - 1) ** 2


def lmg_sector_spectrum(n: int, epsilon: float) -> tuple[np.ndarray, list[int]]:
    """Energies and exact ``int`` multiplicities of the all-to-all Ising
    (LMG-type) model, at any ``n``.

    ``H = epsilon sum_{l<m} sigma^z_l sigma^z_m`` is a function of the total
    magnetization alone: with j spins down, ``E(j) = epsilon [(n-2j)^2 - n]/2``
    with multiplicity ``C(n, j)``, the row from
    ``C(n, j+1) = C(n, j) (n-j)/(j+1)`` (one ``comb`` per ``j`` would cost
    ``O(n)`` products each).
    """
    j = np.arange(_check_int("spin count n", n, 1) + 1)
    mult = accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1)
    return epsilon * ((n - 2.0 * j) ** 2 - n) / 2.0, list(mult)


def rate_lmg(n: int, epsilon: float, beta: float, gamma: float) -> float:
    """Thermal energy-dephasing rate ``4 gamma var_beta(H)`` of the LMG-type model.

    Computed from the exact magnetization-sector spectrum, with the exact
    logarithms of its multiplicities, so at any ``n``.  At ``beta = 0``
    this equals ``2 gamma epsilon^2 n (n-1)``; it vanishes as
    ``beta -> infinity`` because the extremal sector is degenerate in energy.
    ``epsilon`` may take either sign; ``beta`` and ``gamma`` are nonnegative.
    """
    _check_int("spin count n", n, 2)
    _check_real("epsilon", epsilon, None)
    _check_real("inverse temperature", beta)
    _check_real("gamma", gamma)
    energies, mult = lmg_sector_spectrum(n, epsilon)
    w = _gibbs_weights(energies, beta, np.array([log(m) for m in mult]))[0]
    return float(_energy_dephasing_rate(w ** 2, energies, gamma))

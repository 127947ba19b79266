"""Decoherence-rate calculators for Markovian dephasing channels.

The central quantity is the initial fractional purity decay rate of a state
under Hermitian Lindblad channels ``(gamma_mu, V_mu)``:

    D = 2 sum_mu gamma_mu [tr(rho^2 V_mu^2) - tr(rho V_mu rho V_mu)] / tr(rho^2),

which depends only on the initial state and the channels, not on a constant
shift of any ``V_mu``.  For a pure state it is ``2 sum_mu gamma_mu var(V_mu)``;
every rate here takes the bracket centred, from ``hermitian``.

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
from math import comb

import numpy as np

from . import _pool
from .exceptions import DimensionMismatchError
from .hermitian import (_energy_dephasing_rate, _gibbs_log_weights,
                        _modified_covariance, _purity, as_state, spectral_norm)
from .ensembles import EnsembleEstimate, RngStream, _gue_columns
from .specfun import KBodySpec, _check_real

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class LindbladChannel:
    """One dephasing channel: nonnegative finite rate and Hermitian operator.

    ``v`` is stored as an array: a ``d x d`` matrix, or a length-``d`` vector
    for an operator diagonal in the computational basis.
    """

    gamma: float
    v: np.ndarray

    def __post_init__(self):
        _check_real("channel rate", self.gamma)
        v = np.asarray(self.v)
        if not (v.ndim == 1 or (v.ndim == 2 and v.shape[0] == v.shape[1])):
            raise ValueError(f"channel operator must be a vector or a square "
                             f"matrix, got shape {v.shape}")
        object.__setattr__(self, "v", v)


def _noise_stiffness(channels: list[LindbladChannel]) -> float:
    """``sum gamma ||V||^2``, the noise part of a step-size scale."""
    return sum(c.gamma * spectral_norm(c.v) ** 2 for c in channels)


def decoherence_rate(rho0: np.ndarray, channels: list[LindbladChannel]) -> float:
    """Initial purity-decay rate of ``rho0`` under Hermitian dephasing channels.

    Zero channels give 0; a maximally mixed state gives 0 for any channels.
    A channel of another dimension raises ``DimensionMismatchError``.
    """
    rho0 = as_state(rho0)
    return float(2.0 * sum(c.gamma * _modified_covariance(rho0, c.v, c.v).real
                           for c in channels) / _purity(rho0))


def _rate_gue_block(gen: np.random.Generator, m: int, d: int, gamma: float,
                    state: np.ndarray) -> np.ndarray:
    """Rates of ``m`` GUE channels, drawn in row slices.  A pure state's is
    ``|V psi - mu psi|^2``, ``mu = <psi|V|psi>``, where ``V psi`` reads only the
    columns of ``V`` on the support of ``psi``, and only those are drawn; each
    row's sums are stacked products, so no rate depends on its slice."""
    out = np.empty(m)
    if state.ndim == 1:
        cols = np.flatnonzero(state)
        s, psi = len(cols), state[cols]
        ab = np.stack([psi.real, psi.imag], axis=-1).reshape(-1, 1)
        # Sliced by the bytes of the complex columns, the largest temporary.
        for lo, hi in _pool.row_slices(m, 16 * s * d):
            k = hi - lo
            w = _gue_columns(gen, k, d, cols) @ psi
            mu = (w.take(cols, axis=1).view(float).reshape(k, 1, 2 * s) @ ab)[:, 0]
            r = (w - mu * state).view(float).reshape(k, 1, 2 * d)
            out[lo:hi] = (r @ r.transpose(0, 2, 1))[:, 0, 0]
        return 2.0 * gamma * out
    for lo, hi in _pool.row_slices(m, d * d):
        v = _gue_columns(gen, hi - lo, d, np.arange(d))
        out[lo:hi] = _modified_covariance(state, v, v).real
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
    if rho0.shape[0] != d:
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
    n, k = spec.n, spec.k
    if n > 24:
        raise ValueError("diagonal of length 2^n capped at n = 24")
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    e = [np.ones(size)] + [np.zeros(size) for _ in range(k)]
    for site in range(n):
        s = 1.0 - 2.0 * ((idx >> site) & 1).astype(float)
        for j in range(min(site + 1, k), 0, -1):
            e[j] = e[j] + s * e[j - 1]
    return spec.epsilon * e[k]


def _site_operator(n: int, site: int, alpha: str) -> np.ndarray:
    op = np.eye(1, dtype=complex)
    for l in range(n):
        op = np.kron(op, PAULI[alpha] if l == site else np.eye(2, dtype=complex))
    return op


def build_tbre_operator(n: int) -> np.ndarray:
    """Fixed TBRE Lindblad operator: sum of all nearest-neighbour Pauli pairs."""
    if n > 12:
        raise ValueError("dense 2^n operator capped at n = 12")
    dim = 1 << n
    v = np.zeros((dim, dim), dtype=complex)
    for l in range(n - 1):
        for a in "xyz":
            sa = _site_operator(n, l, a)
            for b in "xyz":
                v += sa @ _site_operator(n, l + 1, b)
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
    if n < 2:
        raise ValueError("need at least two spins")
    rate = decoherence_rate(rho0, [LindbladChannel(gamma, build_tbre_operator(n))])
    return rate, 162.0 * gamma * (n - 1) ** 2


def lmg_sector_spectrum(n: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Energies and multiplicities of the all-to-all Ising (LMG-type) model.

    ``H = epsilon sum_{l<m} sigma^z_l sigma^z_m`` is a function of the total
    magnetization alone: with j spins down, ``E(j) = epsilon [(n-2j)^2 - n]/2``
    with multiplicity ``C(n, j)``.
    """
    j = np.arange(n + 1)
    energies = epsilon * ((n - 2.0 * j) ** 2 - n) / 2.0
    mult = np.array([comb(n, int(jj)) for jj in j], dtype=float)
    return energies, mult


def rate_lmg(n: int, epsilon: float, beta: float, gamma: float) -> float:
    """Thermal energy-dephasing rate ``4 gamma var_beta(H)`` of the LMG-type model.

    Computed from the exact magnetization-sector spectrum.  At ``beta = 0``
    this equals ``2 gamma epsilon^2 n (n-1)``; it vanishes as
    ``beta -> infinity`` because the extremal sector is degenerate in energy.
    ``epsilon`` may take either sign; ``beta`` and ``gamma`` are nonnegative.
    """
    if n < 2:
        raise ValueError("need at least two spins")
    _check_real("epsilon", epsilon, None)
    _check_real("inverse temperature", beta)
    _check_real("gamma", gamma)
    energies, mult = lmg_sector_spectrum(n, epsilon)
    w = np.exp(_gibbs_log_weights(energies, beta, np.log(mult))[0])
    return float(_energy_dephasing_rate(w, energies, gamma)[0])

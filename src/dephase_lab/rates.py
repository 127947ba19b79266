"""Decoherence-rate calculators for Markovian dephasing channels.

The central quantity is the initial fractional purity decay rate of a state
under Hermitian Lindblad channels ``(gamma_mu, V_mu)``:

    D = 2 sum_mu gamma_mu [tr(rho^2 V_mu^2) - tr(rho V_mu rho V_mu)] / tr(rho^2),

which depends only on the initial state and the channels.  For a pure state
it reduces to ``2 sum_mu gamma_mu var(V_mu)``.

For channels drawn from GUE two closed-form candidates exist for the
fixed-pure-state average.  They differ only through the value assigned to
the ensemble moment ``<(tr V)^2>``:

* ``<(tr V)^2> = 0``   gives  ``Gamma d^2/(d+1)``   (:func:`rate_gue_haar`),
* ``<(tr V)^2> = d/2`` gives  ``Gamma (d - 1)``     (:func:`rate_gue_wick`),

where ``Gamma`` is the summed channel rate.  The two disagree by
``Gamma/(d+1)``, so :func:`rate_gue_mc` keeps an unbiased Monte-Carlo
estimator around and the acceptance suite records which candidate the data
selects rather than assuming one.

Also here: diagonal k-body sigma^z-string operators with their
norm-squared rate bounds and the GUE/k-body crossover scan, the
two-body-random-ensemble (TBRE) bound, and the all-to-all Ising
(Lipkin-Meshkov-Glick type) thermal rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from . import _pool
from .exceptions import DimensionMismatchError
from .hermitian import _gibbs_log_weights, _modified_covariance, as_state
from .ensembles import EnsembleEstimate, RngStream, _gue_matrix

__all__ = [
    "LindbladChannel", "KBodySpec", "TbreSpec", "decoherence_rate",
    "rate_gue_haar", "rate_gue_wick", "rate_gue_mc", "build_kbody_operator",
    "rate_kbody_bound", "calibrate_epsilon", "crossover_min_n",
    "build_tbre_operator", "build_tbre_hamiltonian", "tbre_rate_and_bound",
    "rate_lmg", "lmg_sector_spectrum",
]

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class LindbladChannel:
    """One dephasing channel: nonnegative rate and Hermitian operator.

    ``v`` is stored as an array: a ``d x d`` matrix, or a length-``d`` vector
    for an operator diagonal in the computational basis.
    """

    gamma: float
    v: np.ndarray

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("channel rate must be nonnegative")
        v = np.asarray(self.v)
        if not (v.ndim == 1 or (v.ndim == 2 and v.shape[0] == v.shape[1])):
            raise ValueError(f"channel operator must be a vector or a square "
                             f"matrix, got shape {v.shape}")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class KBodySpec:
    """All-to-all k-body sigma^z-string operator on n qubits, amplitude epsilon."""

    n: int
    k: int
    epsilon: float = 1.0

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError("locality k must satisfy 1 <= k <= n")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def norm(self) -> float:
        """Spectral norm epsilon * C(n, k) (attained on the all-up state)."""
        return self.epsilon * comb(self.n, self.k)


@dataclass(frozen=True)
class TbreSpec:
    """Spin chain with random two-body couplings and fields, open boundaries.

    The fluctuating part is coupling-independent: the Lindblad operator is
    the fixed sum of all nearest-neighbour Pauli pairs.  The coupling and
    field scales only parametrize the illustrative Hamiltonian draw.
    """

    n: int
    coupling_scale: float = 1.0
    field_scale: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two spins")


def decoherence_rate(rho0: np.ndarray, channels: list[LindbladChannel]) -> float:
    """Initial purity-decay rate of ``rho0`` under Hermitian dephasing channels.

    Zero channels give 0; a maximally mixed state gives 0 for any channels.
    """
    rho0 = as_state(rho0)
    if not channels:
        return 0.0
    for c in channels:
        if len(c.v) != rho0.shape[0]:
            raise DimensionMismatchError("channel dimension differs from the state")
    p0 = 1.0 if rho0.ndim == 1 else float(np.sum(np.abs(rho0) ** 2))
    acc = 0.0
    for c in channels:
        acc += c.gamma * _modified_covariance(rho0, c.v, c.v).real
    return 2.0 * acc / p0


def rate_gue_haar(d: int, total_gamma: float) -> float:
    """Closed form ``Gamma d^2/(d+1)`` for a fixed pure state (vanishing
    ``<(tr V)^2>`` variant)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return total_gamma * d * d / (d + 1.0)


def rate_gue_wick(d: int, total_gamma: float, purity0: float = 1.0) -> float:
    """Closed form ``Gamma (d - 1/P0)`` from entrywise Wick contractions
    (``<(tr V)^2> = d/2`` variant); ``P0`` is the initial purity."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 0 < purity0 <= 1 + 1e-12:
        raise ValueError("purity must lie in (0, 1]")
    return total_gamma * (d - 1.0 / purity0)


def _rate_gue_sample(gen: np.random.Generator, d: int, gamma: float,
                     vec: np.ndarray | None, rho: np.ndarray | None) -> float:
    v = _gue_matrix(d, gen)
    if vec is not None:
        w = v @ vec
        return 2.0 * gamma * (np.vdot(w, w).real - np.vdot(vec, w).real ** 2)
    p0 = float(np.sum(np.abs(rho) ** 2))
    rv = rho @ v
    cov = np.trace(rho @ rv @ v).real - np.trace(rv @ rv).real
    return 2.0 * gamma * cov / p0


# Old name of the per-sample function, still wrapped by perfbench/tracer.py.
_rate_gue_chunk = _rate_gue_sample


def rate_gue_mc(rho0: np.ndarray, gamma: float, d: int,
                n_samples: int, rng: RngStream, workers: int = 1
                ) -> EnsembleEstimate:
    """Monte-Carlo decoherence rate over GUE channels for a fixed state.

    One substream per sample index, reduced in index order, so the estimate
    is reproducible for a given ``rng`` regardless of ``workers``.
    """
    rho0 = as_state(rho0)
    if rho0.shape[0] != d:
        raise DimensionMismatchError("state dimension differs from d")
    vec, rho = (rho0, None) if rho0.ndim == 1 else (None, rho0)
    vals = _pool.gather_samples(_rate_gue_sample, n_samples, rng, workers,
                                d, gamma, vec, rho)
    return EnsembleEstimate.from_samples(vals, rng.master_seed)


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


def rate_kbody_bound(spec: KBodySpec, gamma: float, mode: str = "approx") -> float:
    """State-independent upper bound on the k-body decoherence rate.

    ``approx`` uses ``2 gamma eps^2 n^(2k)/(k!)^2`` (large-n form of the
    squared-norm bound); ``exact-binomial`` uses ``2 gamma eps^2 C(n,k)^2``.
    Both assume unit-norm string factors.
    """
    if mode == "approx":
        return 2.0 * gamma * spec.epsilon ** 2 * float(spec.n) ** (2 * spec.k) \
            / factorial(spec.k) ** 2
    if mode == "exact-binomial":
        return 2.0 * gamma * spec.epsilon ** 2 * comb(spec.n, spec.k) ** 2
    raise ValueError(f"unknown mode {mode!r}")


def calibrate_epsilon(n0: int, k: int, gamma: float, mode: str = "exact-binomial"
                      ) -> float:
    """Squared amplitude matching the GUE rate and the k-body bound at ``n0``.

    Solves ``rate_gue_haar(2^n0) = rate_kbody_bound(n0, k, eps)`` for
    ``eps^2``; the channel rate cancels.  The reference calibration
    ``n0 = 1, k = 1`` gives ``eps^2 = 2/3`` in either mode.
    """
    if n0 < k:
        raise ValueError("n0 must be at least k")
    target = rate_gue_haar(2 ** n0, gamma)
    unit = rate_kbody_bound(KBodySpec(n0, k, 1.0), gamma, mode)
    return target / unit


def crossover_min_n(k: int, epsilon_sq: float, mode: str = "approx",
                    n_cap: int = 64) -> int | None:
    """Smallest n past which the GUE rate exceeds the k-body bound for good.

    The exponential ``Gamma d^2/(d+1)`` with ``d = 2^n`` overtakes the
    polynomial bound permanently; this returns the first n of that final
    regime.  Exact equality counts as not crossed, so the calibration point
    itself never qualifies, and an isolated crossing at ``n = k`` (where the
    binomial bound is trivially small) is ignored.  Returns ``None`` when no
    permanent crossover exists below ``n_cap``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if epsilon_sq <= 0:
        raise ValueError("epsilon_sq must be positive")
    eps = float(np.sqrt(epsilon_sq))
    last_not_crossed = None
    crossed_at_cap = False
    for n in range(k, n_cap + 1):
        gue = rate_gue_haar(2 ** n, 1.0)
        bound = rate_kbody_bound(KBodySpec(n, k, eps), 1.0, mode)
        if gue > bound:
            crossed_at_cap = True
        else:
            last_not_crossed = n
            crossed_at_cap = False
    if not crossed_at_cap:
        return None
    return k if last_not_crossed is None else last_not_crossed + 1


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


def build_tbre_hamiltonian(spec: TbreSpec, rng: RngStream) -> np.ndarray:
    """Illustrative TBRE Hamiltonian draw (random couplings A and fields B)."""
    gen = rng.generator()
    n = spec.n
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for l in range(n - 1):
        for a in "xyz":
            sa = _site_operator(n, l, a)
            for b in "xyz":
                h += spec.coupling_scale * gen.standard_normal() \
                    * (sa @ _site_operator(n, l + 1, b))
    for l in range(n):
        for a in "xyz":
            h += spec.field_scale * gen.standard_normal() * _site_operator(n, l, a)
    return h


def tbre_rate_and_bound(spec: TbreSpec, rho0: np.ndarray,
                        gamma: float) -> tuple[float, float]:
    """Decoherence rate under the fixed TBRE operator and its polynomial bound.

    The bound is ``162 gamma (n-1)^2``, from ``2 gamma ||V||^2`` with
    ``||V|| <= 9 (n-1)``; the rate never exceeds it.
    """
    v = build_tbre_operator(spec.n)
    rate = decoherence_rate(rho0, [LindbladChannel(gamma, v)])
    return rate, 162.0 * gamma * (spec.n - 1) ** 2


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
    """
    if n < 2:
        raise ValueError("need at least two spins")
    energies, mult = lmg_sector_spectrum(n, epsilon)
    w = np.exp(_gibbs_log_weights(energies, beta, np.log(mult))[0])
    mean = float(w @ energies)
    return 4.0 * gamma * (float(w @ (energies ** 2)) - mean * mean)

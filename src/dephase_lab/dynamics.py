"""Exact thermofield-double dephasing dynamics and master-equation integration.

A thermofield double over a spectrum ``{E_k}`` is the purification
``|Phi_0> = Z(beta)^{-1/2} sum_k exp(-beta E_k/2) |k>|k>``.  Under white-noise
energy dephasing acting independently on both copies with rate ``gamma`` the
density matrix stays supported on the doubled basis ``|k>|k><l|<l|`` and each
coefficient evolves in closed form:

    c_kl(t) = exp(-beta (E_k+E_l)/2 - 2 i t (E_k-E_l) - gamma t (E_k-E_l)^2) / Z.

The purity is the double sum
``P_t = Z^{-2} sum_kl exp(-beta (E_k+E_l) - 2 gamma t (E_k-E_l)^2)``, with the
equivalent Gaussian-integral form

    P_t = (8 pi gamma t)^{-1/2} Integral dy exp(-y^2/(8 gamma t)) |Z(beta-iy)/Z(beta)|^2

evaluated here by Gauss-Hermite quadrature.  The long-time limit is
``Z(2 beta)/Z(beta)^2``, the purity of the thermal state.

States live in the d-dimensional doubled-basis coefficient representation
(memory O(d^2), not O(d^4)); every partition sum is max-shifted before
exponentiation so inverse temperatures up to ~1e3 stay in range.

The module also provides a fixed-step RK4 integrator for the dephasing
master equation in double-commutator form
``drho/dt = -i [H0, rho] - (1/2) sum_mu gamma_mu [V_mu, [V_mu, rho]]``,
GUE ensemble averaging of the purity decay, and the annealed-average
consistency check ``<ln Z> <= ln <Z>``.  Both ensemble estimators use only
eigenvalues: each sample draws one GUE spectrum from the tridiagonal model,
every inverse temperature reads it, and every purity shares one pair kernel.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _pool
from .exceptions import StepSizeError
from .hermitian import _gibbs_log_weights, as_matrix, as_state, spectral_norm
from .ensembles import EnsembleEstimate, RngStream, _gue_spectrum
from .rates import LindbladChannel
from .specfun import gauss_hermite, rate_tfd_gue_exact

__all__ = [
    "TfdSystem", "TfdDensity", "build_tfd", "evolve_tfd", "purity_tfd",
    "purity_inf_tfd", "purity_tfd_hs", "rate_tfd", "ensemble_purity_tfd",
    "TfdPurityCurve", "annealing_check", "AnnealingCheck",
    "master_equation_rk4",
]


@dataclass(frozen=True)
class TfdSystem:
    """Thermofield double data: spectrum, inverse temperature, noise rate.

    ``weights`` are the Schmidt coefficients ``w_k = exp(-beta E_k/2)/sqrt(Z)``
    (so sum w_k^2 = 1) and ``log_z`` is ``ln Z(beta)``.
    """

    energies: np.ndarray
    beta: float
    gamma: float
    weights: np.ndarray
    log_z: float

    @property
    def dim(self) -> int:
        return self.energies.shape[0]


@dataclass(frozen=True)
class TfdDensity:
    """Doubled-basis coefficients c_kl of a dephasing thermofield double."""

    coefficients: np.ndarray

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.coefficients)))

    def purity(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    def to_product_basis(self) -> np.ndarray:
        """Dense d^2 x d^2 density matrix on the doubled Hilbert space."""
        d = self.dim
        rho = np.zeros((d * d, d * d), dtype=complex)
        kk = np.arange(d) * d + np.arange(d)
        rho[np.ix_(kk, kk)] = self.coefficients
        return rho


def build_tfd(energies: np.ndarray, beta: float,
              gamma: float = 1.0) -> TfdSystem:
    """Thermofield double of a spectrum at inverse temperature ``beta``.

    Weights are computed with a max-shifted log-sum-exp, so arbitrarily large
    ``beta`` only drives them to the ground-state limit instead of
    underflowing.  The reduced state of either copy is the thermal state.
    """
    if beta < 0:
        raise ValueError("inverse temperature must be nonnegative")
    if gamma <= 0:
        raise ValueError("noise rate must be positive")
    energies = np.asarray(energies, dtype=float)
    log_p, log_z = _gibbs_log_weights(energies, beta)
    weights = np.exp(0.5 * log_p)
    return TfdSystem(energies=np.array(energies, dtype=float), beta=beta,
                     gamma=gamma, weights=weights, log_z=log_z)


def evolve_tfd(sys: TfdSystem, t: float) -> TfdDensity:
    """Closed-form coefficients at time ``t`` (diagonal entries constant)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    e = sys.energies
    gaps = e[:, None] - e[None, :]
    c0 = sys.weights[:, None] * sys.weights[None, :]
    phase = np.exp(-2j * t * gaps - sys.gamma * t * gaps ** 2)
    return TfdDensity(c0 * phase)


# Just above ln of the smallest normal double (-708.40): exp below it is
# under 3.4e-308, and numpy's exp is an order of magnitude slower on the
# subnormal results further down.
_EXP_FLOOR = -708.0


def _purity_kernel(energies: np.ndarray, probs: np.ndarray,
                   gamma_t: np.ndarray) -> np.ndarray:
    """Purity curves ``(n_beta, T)`` of one spectrum under several Gibbs laws.

    ``probs`` holds one row ``p_k = exp(-beta E_k)/Z`` per inverse
    temperature.  The purity is
    ``sum_k p_k^2 + 2 sum_{k<l} p_k p_l exp(-2 gamma t (E_k - E_l)^2)``; the
    gap factor does not depend on beta, so each time point evaluates it once
    over the upper-triangle pairs and contracts every row in one product.
    Factors below ``exp(_EXP_FLOOR)`` are left at zero instead of computed:
    each such term is below 1e-307, against purities of at least 1/d.
    """
    iu, ju = np.triu_indices(energies.shape[0], 1)
    gaps2 = (energies[iu] - energies[ju]) ** 2
    pp = probs[:, iu] * probs[:, ju]
    diag = (probs ** 2).sum(axis=1)
    # t = 0 stays exactly 1: the thermofield double is pure.
    out = np.ones((probs.shape[0], len(gamma_t)))
    for j in np.flatnonzero(gamma_t):
        arg = -2.0 * gamma_t[j] * gaps2
        k = np.exp(arg, out=np.zeros_like(arg), where=arg > _EXP_FLOOR)
        out[:, j] = diag + 2.0 * (pp @ k)
    return out


def purity_tfd(sys: TfdSystem, t):
    """Purity of the dephasing thermofield double at time(s) ``t``.

    Monotone non-increasing from 1 at ``t = 0`` to ``Z(2 beta)/Z(beta)^2``;
    the infinite-temperature plateau is ``1/d``.
    """
    t_arr = np.asarray(t, dtype=float)
    if (t_arr < 0).any():
        raise ValueError("time must be nonnegative")
    out = _purity_kernel(sys.energies, (sys.weights ** 2)[None, :],
                         sys.gamma * np.atleast_1d(t_arr))[0]
    return float(out[0]) if t_arr.ndim == 0 else out


def purity_inf_tfd(sys: TfdSystem) -> float:
    """Long-time purity plateau ``Z(2 beta)/Z(beta)^2``."""
    return float(np.sum(sys.weights ** 4))


def purity_tfd_hs(sys: TfdSystem, t: float,
                  quadrature_nodes: int | None = None) -> float:
    """Purity via the Gaussian-integral (auxiliary-field) representation.

    Substituting ``y = sqrt(8 gamma t) u`` turns the integral into a
    Gauss-Hermite sum over ``|Z(beta - i y)/Z(beta)|^2``.  The integrand
    oscillates with frequency up to ``sqrt(8 gamma t)`` times the spectral
    range, so when ``quadrature_nodes`` is not given the node count is scaled
    to resolve that frequency (capped at 2048).  Degenerate at ``t = 0`` (the
    Gaussian collapses): use :func:`purity_tfd` there.
    """
    if t <= 0:
        raise ValueError("the Gaussian representation requires t > 0; "
                         "use purity_tfd at t = 0")
    if quadrature_nodes is None:
        spread = float(sys.energies.max() - sys.energies.min())
        omega_sq = 8.0 * sys.gamma * t * spread ** 2
        quadrature_nodes = min(64 + int(math.ceil(0.35 * omega_sq)), 2048)
    nodes, w = gauss_hermite(quadrature_nodes)
    e = sys.energies
    y = np.sqrt(8.0 * sys.gamma * t) * nodes
    boltz = sys.weights ** 2          # exp(-beta E_k)/Z, already normalized
    zr = (boltz[None, :] * np.exp(1j * np.outer(y, e))).sum(axis=1)
    return float((w * np.abs(zr) ** 2).sum() / math.sqrt(math.pi))


def rate_tfd(sys: TfdSystem) -> float:
    """Initial dephasing rate ``4 gamma var_beta(H)`` of the thermofield double.

    The variance is taken in the Gibbs state of the spectrum; this equals
    ``4 gamma`` times the second beta-derivative of ``ln Z`` and is computed
    exactly from the eigenvalues rather than by finite differences.
    """
    p = sys.weights ** 2
    mean = float(p @ sys.energies)
    return 4.0 * sys.gamma * (float(p @ sys.energies ** 2) - mean * mean)


@dataclass(frozen=True)
class TfdPurityCurve:
    """Ensemble-averaged purity decay with companion scalar estimates."""

    times: np.ndarray                 # in units of gamma * t
    purity: EnsembleEstimate          # arrays over the time grid
    purity_inf: EnsembleEstimate
    rate: EnsembleEstimate


def _tfd_purity_sample(gen: np.random.Generator, d: int,
                       betas: Sequence[float], gamma: float,
                       gamma_t: np.ndarray) -> np.ndarray:
    """Purity curve, plateau and rate of one GUE spectrum, one row per beta."""
    energies = _gue_spectrum(gen, d)
    systems = [build_tfd(energies, beta, gamma) for beta in betas]
    probs = np.array([sys.weights ** 2 for sys in systems])
    scalars = [[purity_inf_tfd(sys), rate_tfd(sys)] for sys in systems]
    return np.hstack([_purity_kernel(energies, probs, gamma_t), scalars])


# Old name of the per-sample function, still wrapped by perfbench/tracer.py.
_tfd_purity_chunk = _tfd_purity_sample


def ensemble_purity_tfd(n_qubits: int, betas: Sequence[float], gamma: float,
                        gamma_t: np.ndarray, n_samples: int, rng: RngStream,
                        workers: int = 1) -> list[TfdPurityCurve]:
    """Average the thermofield-double purity decay over GUE Hamiltonians.

    Returns one curve per entry of ``betas``.  ``gamma_t`` is the
    dimensionless time grid.  Sample ``i`` draws one GUE spectrum from
    substream ``i`` of ``rng`` and every beta reads it, so each curve's
    standard error is over ``n_samples`` independent draws.  The reduction
    is in fixed index order, so results depend only on ``rng`` and
    ``n_samples``, not on ``workers``.
    """
    if n_qubits < 1 or 2 ** n_qubits > 2 ** 10:
        raise ValueError("qubit count must give a dimension between 2 and 2^10")
    grid = np.asarray(gamma_t, dtype=float)
    table = _pool.gather_samples(_tfd_purity_sample, n_samples, rng, workers,
                                 2 ** n_qubits, list(betas), gamma, grid)
    seed = rng.master_seed
    return [TfdPurityCurve(times=grid,
                           purity=EnsembleEstimate.from_samples(rows[:, :-2], seed),
                           purity_inf=EnsembleEstimate.from_samples(rows[:, -2], seed),
                           rate=EnsembleEstimate.from_samples(rows[:, -1], seed))
            for rows in np.moveaxis(table, 1, 0)]


@dataclass(frozen=True)
class AnnealingCheck:
    """Quenched vs annealed log-partition averages and the implied rates."""

    mean_ln_z: float
    ln_mean_z: float
    ln_z_stderr: float
    rate_quenched: EnsembleEstimate
    rate_annealed: float
    rate_annealed_mc: EnsembleEstimate

    @property
    def jensen_gap(self) -> float:
        """ln <Z> - <ln Z>; nonnegative up to sampling error."""
        return self.ln_mean_z - self.mean_ln_z


def annealing_check(betas: Sequence[float], d: int, n_samples: int,
                    rng: RngStream, gamma: float = 1.0) -> list[AnnealingCheck]:
    """Compare ``<ln Z>`` against ``ln <Z>`` over GUE draws, per ``beta``.

    Jensen's inequality puts ``<ln Z> <= ln <Z>``; the gap closes with
    growing dimension at fixed ``beta``.  The implied dephasing rates are the
    sample mean of ``4 gamma var_beta(H)`` (quenched), the closed-form
    annealed rate from the averaged partition function, and the same
    annealed rate estimated from the draws.  Every ``beta`` reads the same
    ``n_samples`` spectra, drawn once.
    """
    spectra = _pool.gather_samples(_gue_spectrum, n_samples, rng, 1, d)
    return [_annealing_at(spectra, beta, gamma, rng.master_seed)
            for beta in betas]


def _annealing_at(spectra: np.ndarray, beta: float, gamma: float,
                  seed: int) -> AnnealingCheck:
    """:class:`AnnealingCheck` at one ``beta`` from ``(n, d)`` spectra."""
    n_samples = len(spectra)
    # ln Z and the Gibbs moments <E>, <E^2> of each draw.
    table = np.empty((n_samples, 3))
    for i, energies in enumerate(spectra):
        sys = build_tfd(energies, beta, gamma)
        p = sys.weights ** 2
        table[i] = sys.log_z, p @ sys.energies, p @ sys.energies ** 2
    ln_z, m1, m2 = table.T
    ln_z_est = EnsembleEstimate.from_samples(ln_z, seed)
    # <Z> from the same draws, max-shifted.
    shift = ln_z.max()
    z = np.exp(ln_z - shift)

    # 4 gamma [<Z2>/<Z> - (<Z1>/<Z>)^2] with Z_k = sum_j E_j^k exp(-beta E_j),
    # which is z <E^k> per draw; dropping one draw per sum gives the jackknife.
    def rate(s0, s1, s2):
        return 4.0 * gamma * (s2 / s0 - (s1 / s0) ** 2)

    loo = rate(z.sum() - z, z @ m1 - z * m1, z @ m2 - z * m2)
    jackknife = math.sqrt((n_samples - 1) / n_samples
                          * ((loo - loo.mean()) ** 2).sum())
    return AnnealingCheck(
        mean_ln_z=ln_z_est.mean,
        ln_mean_z=float(shift + math.log(z.mean())),
        ln_z_stderr=ln_z_est.stderr,
        rate_quenched=EnsembleEstimate.from_samples(
            4.0 * gamma * (m2 - m1 * m1), seed),
        rate_annealed=rate_tfd_gue_exact(beta, spectra.shape[1], gamma),
        rate_annealed_mc=EnsembleEstimate(
            float(rate(z.sum(), z @ m1, z @ m2)), jackknife, n_samples, seed),
    )


def master_equation_rk4(h0: np.ndarray, channels: list[LindbladChannel],
                        rho0: np.ndarray, dt: float, steps: int,
                        store_every: int = 1) -> np.ndarray:
    """Integrate the dephasing master equation with classical fixed-step RK4.

    The generator is the double-commutator form
    ``-i [H0, rho] - (1/2) sum gamma [V, [V, rho]]`` (Hermitian Lindblad
    operators).  Refuses to run when
    ``dt (||H0|| + sum gamma ||V||^2) > 0.05``, the stability heuristic for
    this integrator.  Returns the density matrices at ``t = 0`` and then
    every ``store_every`` steps, stacked into one
    ``(steps // store_every + 1, d, d)`` array.
    """
    rho0 = as_state(rho0)
    h = as_matrix(h0)
    stiffness = spectral_norm(h) + sum(c.gamma * spectral_norm(c.v) ** 2
                                       for c in channels)
    if dt * stiffness > 0.05:
        raise StepSizeError(
            f"dt * (||H0|| + sum gamma ||V||^2) = {dt * stiffness:.3g} exceeds "
            "0.05; reduce the step")
    vs = [as_matrix(c.v) for c in channels]
    gs = [c.gamma for c in channels]
    v2s = [v @ v for v in vs]

    def rhs(r: np.ndarray) -> np.ndarray:
        out = -1j * (h @ r - r @ h)
        for g, v, v2 in zip(gs, vs, v2s):
            out -= 0.5 * g * (v2 @ r - 2.0 * (v @ r @ v) + r @ v2)
        return out

    r = np.outer(rho0, rho0.conj()) if rho0.ndim == 1 else rho0
    traj = np.empty((steps // store_every + 1,) + r.shape, dtype=complex)
    traj[0] = r
    for s in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * dt * k1)
        k3 = rhs(r + 0.5 * dt * k2)
        k4 = rhs(r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (s + 1) % store_every == 0:
            traj[(s + 1) // store_every] = r
    return traj

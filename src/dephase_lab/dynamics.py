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

evaluated here by Gauss-Hermite quadrature, with nodes from the one
tridiagonal eigensolve (``ensembles._tridiagonal_eigvalsh``) and weights from
the GUE level density.  The long-time limit is ``Z(2 beta)/Z(beta)^2``, the
purity of the thermal state.

States live in the d-dimensional doubled-basis coefficient representation
(memory O(d^2), not O(d^4)); every partition sum is max-shifted before
exponentiation so every finite inverse temperature stays in range.  At
every dimension the double sum runs over the level pairs one offset
diagonal after another, without BLAS, and only over the offsets whose gap
factors can exceed ``2^-80``; each beta's row is summed in one order,
whatever the other betas of the call.

The module also provides a fixed-step RK4 integrator for the dephasing
master equation in double-commutator form
``drho/dt = -i [H0, rho] - (1/2) sum_mu gamma_mu [V_mu, [V_mu, rho]]``,
GUE ensemble averaging of the purity decay, and the annealed-average
consistency check ``<ln Z> <= ln <Z>``.  Both ensemble estimators use only
eigenvalues: each sample draws one GUE spectrum from the tridiagonal model,
and one stacked Gibbs pass weighs a block's spectra at every temperature.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _pool
from .exceptions import NumericalError, StepSizeError
from .hermitian import (_energy_dephasing_rate, _gibbs_weights, as_matrix,
                        as_operator, as_state)
from .ensembles import (EnsembleEstimate, RngStream, _gue_spectra,
                        _tridiagonal_eigvalsh, gue_level_density)
from .rates import LindbladChannel, _stiffness
from .specfun import _SAMPLING_LOG2_CAP, _check_int, _check_real, rate_tfd_gue_exact

@dataclass(frozen=True)
class TfdSystem:
    """Thermofield double data: spectrum, noise rate and the Schmidt
    coefficients ``w_k = exp(-beta E_k/2)/sqrt(Z)`` (so sum w_k^2 = 1)."""

    energies: np.ndarray
    gamma: float
    weights: np.ndarray


def _check_thermal(betas: Sequence[float], gamma: float) -> None:
    """Refuse a beta outside ``[0, inf)`` or a noise rate outside ``(0, inf)``."""
    for beta in betas:
        _check_real("inverse temperature", beta)
    _check_real("noise rate", gamma, "positive")


def _check_times(t, scalar: bool = False) -> np.ndarray:
    """``t`` as a float array, refused unless every time is finite and >= 0
    and, with ``scalar``, unless it is one time."""
    t_arr = np.asarray(t, dtype=float)
    if scalar and t_arr.ndim:
        raise ValueError(f"time must be a scalar, got shape {t_arr.shape}")
    if not (np.isfinite(t_arr) & (t_arr >= 0)).all():
        raise ValueError("time must be finite and nonnegative")
    return t_arr


def build_tfd(energies: np.ndarray, beta: float,
              gamma: float = 1.0) -> TfdSystem:
    """Thermofield double of a spectrum at inverse temperature ``beta``.

    Weights are computed with a max-shifted log-sum-exp, so arbitrarily large
    ``beta`` only drives them to the ground-state limit instead of
    underflowing.  The reduced state of either copy is the thermal state.
    ``energies`` must be a real finite vector (:func:`as_operator`).
    """
    _check_thermal([beta], gamma)
    energies = np.array(as_operator(energies, "energies"), dtype=float)
    if energies.ndim != 1:
        raise ValueError("energies must be a vector")
    weights = _gibbs_weights(energies, beta)[0]
    return TfdSystem(energies=energies, gamma=gamma, weights=weights)


def evolve_tfd(sys: TfdSystem, t: float) -> np.ndarray:
    """Closed-form doubled-basis coefficients ``c_kl`` at time ``t``, a
    ``(d, d)`` array whose diagonal stays constant."""
    _check_times(t, scalar=True)
    e = sys.energies
    gaps = e[:, None] - e[None, :]
    c0 = sys.weights[:, None] * sys.weights[None, :]
    # t multiplies last, so a zero gap's factor stays 1 at any finite t.  A
    # factor whose modulus underflows is 0 unevaluated, which also skips
    # the phases that overflow at huge t; a live factor's phase must be finite.
    with np.errstate(over="ignore"):
        arg = t * (-sys.gamma * gaps ** 2 - 2j * gaps)
    live = arg.real > _EXP_FLOOR
    if not np.isfinite(arg.imag[live]).all():
        raise ValueError(f"the phase 2 t (E_k - E_l) of a live pair overflows at t = {t}")
    return c0 * np.exp(arg, out=np.zeros_like(arg), where=live)


# ln 2^-80: every pair factor at or below it is dropped.
_PAIR_FLOOR = -80.0 * math.log(2.0)
# ln 2^-1075: exp rounds every argument at or below it to 0.
_EXP_FLOOR = -1075.0 * math.log(2.0)


@functools.lru_cache(maxsize=4)
def _band_pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level pairs ``(k, k + o)`` diagonal by diagonal (every pair at offset
    ``o = 1``, then ``o = 2``, ...) as index arrays ``iu, ju``, and the
    position where each offset's pairs start, ending with the pair count.
    Cached per ``d`` and shared, so all three arrays are read-only."""
    lens = np.arange(d - 1, 0, -1)
    starts = np.zeros(d, dtype=np.intp)
    np.cumsum(lens, out=starts[1:])
    iu = np.arange(starts[-1]) - np.repeat(starts[:-1], lens)
    ju = iu + np.repeat(np.arange(1, d), lens)
    for a in (iu, ju, starts):
        a.flags.writeable = False
    return iu, ju, starts


def _purity_kernel(energies: np.ndarray, probs: np.ndarray,
                   gamma_t: np.ndarray) -> np.ndarray:
    """Purity curves ``(n_beta, T)`` of one spectrum under several Gibbs laws.

    ``probs`` holds one row ``p_k = exp(-beta E_k)/Z`` per inverse
    temperature.  The purity is
    ``sum_k p_k^2 + 2 sum_{k<l} p_k p_l exp(-2 gamma t (E_k - E_l)^2)``; the
    gap factor does not depend on beta, so each time point evaluates it once
    per pair and contracts every row with it.  The pairs come offset by
    offset from :func:`_band_pairs`.  The smallest squared gap over an
    offset and every later one bounds all of their factors and does not
    decrease with the offset, so each time point exponentiates only the
    prefix of offsets that can hold a factor above ``2^-80``; the factors
    at or below it are zero, so all dropped terms together are below
    ``2^-80``.  ``gamma_t`` is doubled after the product with a gap, so a
    finite ``gamma_t`` never overflows to ``inf * 0`` on a zero gap.  ``pp``
    is C-ordered and each row is contracted by its own one-dimensional
    ``einsum``, without BLAS: a row is summed in one order whatever the
    number of rows or BLAS threads, and the vector accumulators keep the sum
    within a few ulp of a compensated one.
    """
    iu, ju, starts = _band_pairs(energies.shape[0])
    gaps2 = (energies[iu] - energies[ju]) ** 2
    least = np.minimum.accumulate(np.minimum.reduceat(gaps2, starts[:-1])[::-1])[::-1]
    times = np.flatnonzero(gamma_t)
    ends = [starts[np.searchsorted(2.0 * (gamma_t[j] * least), -_PAIR_FLOOR)]
            for j in times]
    n = max(ends, default=0)
    pp = np.multiply(probs[:, iu[:n]], probs[:, ju[:n]], order="C")
    diag = (probs ** 2).sum(axis=1)
    # t = 0 stays exactly 1: the thermofield double is pure.
    out = np.ones((probs.shape[0], len(gamma_t)))
    for j, end in zip(times, ends):
        arg = -2.0 * (gamma_t[j] * gaps2[:end])
        k = np.exp(arg, out=np.zeros_like(arg), where=arg > _PAIR_FLOOR)
        out[:, j] = diag + 2.0 * np.array([np.einsum("j,j->", row, k)
                                           for row in pp[:, :end]])
    return out


def purity_tfd(sys: TfdSystem, t):
    """Purity of the dephasing thermofield double at time(s) ``t``.

    Monotone non-increasing from 1 at ``t = 0`` to ``Z(2 beta)/Z(beta)^2``;
    the infinite-temperature plateau is ``1/d``.  Refuses a time whose
    ``gamma t`` overflows.
    """
    t_arr = _check_times(t)
    # gamma t may overflow (refused), and so may the kernel's 2 gamma t gap^2
    # (a factor of 0) at a finite gamma t.
    with np.errstate(over="ignore"):
        gamma_t = sys.gamma * np.atleast_1d(t_arr)
        if not np.isfinite(gamma_t).all():
            raise ValueError("gamma * t must be finite")
        out = _purity_kernel(sys.energies, (sys.weights ** 2)[None, :], gamma_t)[0]
    return float(out[0]) if t_arr.ndim == 0 else out


def _plateau(weights: np.ndarray):
    """``Z(2 beta)/Z(beta)^2 = sum_k w_k^4`` of Schmidt coefficients ``w`` on
    the last axis: the long-time purity, written once."""
    return (weights ** 4).sum(axis=-1)


def purity_inf_tfd(sys: TfdSystem) -> float:
    """Long-time purity plateau ``Z(2 beta)/Z(beta)^2``."""
    return float(_plateau(sys.weights))


# Bounded, so at most 64 rules (32 KB each at the 2048-node cap) stay alive;
# typed, so that 4.0 or True never hits the entry of 4 or 1 past the check.
@functools.lru_cache(maxsize=64, typed=True)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights (weight ``exp(-x^2)``), ascending.

    The nodes are the eigenvalues of the Hermite Jacobi matrix (zero
    diagonal, off-diagonal ``sqrt(k/2)``) from :func:`_tridiagonal_eigvalsh`;
    each weight is the Christoffel function
    ``exp(-x^2) / sum_{l<n} phi_l(x)^2``, whose sum is
    :func:`gue_level_density` (Gautschi, *Orthogonal Polynomials*, 2004).
    ``O(n^2)`` time and ``O(n)`` memory.  Every weight above ``1e-300`` is
    within a few ``1e-12`` relative, however small (the nodes' roundoff times
    the slope of ``exp(-x^2)``), and a weight is 0 where ``exp(-x^2)``
    underflows (``|x| > 27.3``).  Cached per node count and shared, so both
    arrays are read-only: writing to them raises ``ValueError``.
    """
    n = _check_int("node count n", n, 1)
    nodes = _tridiagonal_eigvalsh(np.zeros(n), np.sqrt(np.arange(1, n) / 2.0))
    head = np.exp(-nodes * nodes)
    weights = np.divide(head, gue_level_density(nodes, n), out=np.zeros(n), where=head > 0)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def purity_tfd_hs(sys: TfdSystem, t: float,
                  quadrature_nodes: int | None = None) -> float:
    """Purity via the Gaussian-integral (auxiliary-field) representation.

    Substituting ``y = sqrt(8 gamma t) u`` turns the integral into a
    Gauss-Hermite sum over ``|Z(beta - i y)/Z(beta)|^2``.  The integrand
    oscillates with frequency up to ``sqrt(8 gamma t)`` times the spectral
    range, so when ``quadrature_nodes`` is not given the node count is scaled
    to resolve that frequency (refused past 2048).  Degenerate at ``t = 0`` (the
    Gaussian collapses): use :func:`purity_tfd` there.
    """
    t = float(_check_times(t, scalar=True))
    if t == 0:
        raise ValueError("the Gaussian representation requires t > 0; "
                         "use purity_tfd at t = 0")
    spread = float(sys.energies.max() - sys.energies.min())
    # The Gaussian's variance; a zero spread leaves a constant integrand,
    # which needs no frequency and the 64-node minimum, even where 8 gamma t
    # overflows.
    var = 8.0 * sys.gamma * t if spread else 0.0
    if quadrature_nodes is None:
        extra = 0.35 * (var * spread ** 2)
        if not extra <= 2048 - 64:      # inf too
            raise ValueError(f"t = {t} takes over 2048 quadrature nodes; use purity_tfd")
        quadrature_nodes = 64 + math.ceil(extra)
    nodes, w = gauss_hermite(quadrature_nodes)
    e = sys.energies
    y = np.sqrt(var) * nodes
    boltz = sys.weights ** 2          # exp(-beta E_k)/Z, already normalized
    zr = (boltz[None, :] * np.exp(1j * np.outer(y, e))).sum(axis=1)
    return float((w * np.abs(zr) ** 2).sum() / math.sqrt(math.pi))


def rate_tfd(sys: TfdSystem) -> float:
    """Initial dephasing rate ``4 gamma var_beta(H)`` of the thermofield double.

    The variance is taken in the Gibbs state of the spectrum; this equals
    ``4 gamma`` times the second beta-derivative of ``ln Z`` and is computed
    exactly from the eigenvalues rather than by finite differences.
    """
    return float(_energy_dephasing_rate(sys.weights ** 2, sys.energies, sys.gamma))


@dataclass(frozen=True)
class TfdPurityCurve:
    """Ensemble-averaged purity decay with companion scalar estimates."""

    times: np.ndarray                 # in units of gamma * t
    purity: EnsembleEstimate          # arrays over the time grid
    purity_inf: EnsembleEstimate
    rate: EnsembleEstimate


def _tfd_purity_block(gen: np.random.Generator, m: int, d: int, betas: Sequence[float],
                      gamma: float, gamma_t: np.ndarray) -> np.ndarray:
    """Purity curve, plateau and rate per beta of each of ``m`` GUE spectra,
    ``(m, n_beta, T + 2)``: row by row what :func:`purity_tfd`,
    :func:`purity_inf_tfd` and :func:`rate_tfd` give for ``build_tfd(e, beta)``."""
    spectra = _gue_spectra(gen, m, d)[:, None, :]
    weights = _gibbs_weights(spectra, np.asarray(betas)[:, None])[0]
    probs = weights ** 2
    curves = np.stack([_purity_kernel(e[0], p, gamma_t) for e, p in zip(spectra, probs)])
    rates = _energy_dephasing_rate(probs, spectra, gamma)
    return np.dstack([curves, _plateau(weights), rates])


# Old name of the block function, still wrapped by perfbench/tracer.py.
_tfd_purity_chunk = _tfd_purity_block


def ensemble_purity_tfd(n_qubits: int, betas: Sequence[float], gamma: float,
                        gamma_t: np.ndarray, n_samples: int, rng: RngStream,
                        workers: int = 1) -> list[TfdPurityCurve]:
    """Average the thermofield-double purity decay over GUE Hamiltonians.

    Returns one curve per entry of ``betas``.  ``gamma_t`` is the
    dimensionless time grid.  Each sample draws one GUE spectrum, which every
    beta reads, so each curve's standard error is over ``n_samples``
    independent draws; results depend only on ``rng`` and ``n_samples``, not
    on ``workers`` (see ``_pool``).
    """
    n_qubits = _check_int("n_qubits", n_qubits, 1, _SAMPLING_LOG2_CAP)
    _check_thermal(betas, gamma)
    grid = _check_times(gamma_t)
    table = _pool.gather_samples(_tfd_purity_block, n_samples, rng, workers,
                                 2 ** n_qubits, list(betas), gamma, grid)
    return [TfdPurityCurve(times=grid,
                           purity=EnsembleEstimate.from_samples(rows[:, :-2]),
                           purity_inf=EnsembleEstimate.from_samples(rows[:, -2]),
                           rate=EnsembleEstimate.from_samples(rows[:, -1]))
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
    ``n_samples`` spectra, drawn once.  Where a draw's ``ln Z`` overflows,
    ``NumericalError`` names the ``beta``.
    """
    _check_thermal(betas, gamma)
    spectra = _pool.gather_samples(_gue_spectra, n_samples, rng, 1,
                                   _check_int("dimension", d, 1))
    return [_annealing_at(spectra, beta, gamma) for beta in betas]


def _annealing_at(spectra: np.ndarray, beta: float, gamma: float) -> AnnealingCheck:
    """:class:`AnnealingCheck` at one ``beta`` from ``(n, d)`` spectra."""
    # ln Z and the quenched rate of each draw, from the levels as given.
    w, ln_z = _gibbs_weights(spectra, beta)
    if not np.isfinite(ln_z).all():
        raise NumericalError(f"ln Z is not finite at beta = {beta}")
    p = w ** 2
    quenched = _energy_dephasing_rate(p, spectra, gamma)
    ln_z_est = EnsembleEstimate.from_samples(ln_z)
    # <Z> from the same draws, max-shifted.
    shift = ln_z.max()
    z = np.exp(ln_z - shift)

    # The annealed Gibbs law mixes the draws' laws with weights z, so by the law
    # of total variance its rate is sum z [q + 4 gamma c^2] / s0, with q the
    # quenched rates, s0 = sum z, M = sum z <E> / s0 and c = <E> - M, each c
    # summed over the levels less M: no term cancels under E -> E + const.
    # <E> and M are read from the levels above the lowest, so M does not round
    # at ulp(E), which each leave-one-out term would feel to first order.
    # Dropping draw i moves M by -z_i c_i/(s0 - z_i), which takes
    # z_i c_i^2 s0/(s0 - z_i) off sum z c^2: the leave-one-out jackknife.
    s0 = z.sum()
    low = spectra - spectra.min()
    m1 = np.einsum("nk,nk->n", p, low)
    c = np.einsum("nk,nk->n", p, low - np.einsum("n,n->", z, m1) / s0)
    total = np.einsum("n,n->", z, quenched) + 4.0 * gamma * np.einsum("n,n->", z, c ** 2)
    loo = (total - z * (quenched + 4.0 * gamma * c ** 2 * s0 / (s0 - z))) / (s0 - z)
    jackknife = math.sqrt((len(loo) - 1) * loo.var())
    return AnnealingCheck(
        mean_ln_z=ln_z_est.mean,
        ln_mean_z=float(shift + math.log(z.mean())),
        ln_z_stderr=ln_z_est.stderr,
        rate_quenched=EnsembleEstimate.from_samples(quenched),
        rate_annealed=rate_tfd_gue_exact(beta, spectra.shape[1], gamma),
        rate_annealed_mc=EnsembleEstimate(float(total / s0), jackknife),
    )


def master_equation_rk4(h0: np.ndarray | None, channels: list[LindbladChannel],
                        rho0: np.ndarray, dt: float, steps: int,
                        store_every: int = 1) -> np.ndarray:
    """Integrate the dephasing master equation with classical fixed-step RK4.

    The generator is the double-commutator form
    ``-i [H0, rho] - (1/2) sum gamma [V, [V, rho]]`` (Hermitian Lindblad
    operators).  Refuses to run when
    ``dt (||H0|| + sum gamma ||V||^2) > 0.05``, the stability heuristic for
    this integrator; ``h0=None`` means no Hamiltonian.  Returns the density
    matrices at ``t = 0`` and then every ``store_every`` steps, stacked into
    one ``(steps // store_every + 1, d, d)`` array.
    """
    _check_real("dt", dt, "positive")
    _check_int("steps", steps, 0)
    _check_int("store_every", store_every, 1)
    rho0 = as_state(rho0)
    h = as_matrix(as_operator(np.zeros(len(rho0)) if h0 is None else h0, "h0"))
    stiffness = _stiffness(h, channels)
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

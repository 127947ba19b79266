"""Ito stochastic-Schrodinger trajectories whose noise average dephases.

A system driven by real Gaussian white noises through Hermitian operators
``V_mu`` follows the Ito equation

    d|psi> = [-i H0 dt - i sum_mu sqrt(gamma_mu) V_mu dW_mu
              - (1/2) sum_mu gamma_mu V_mu^2 dt] |psi>,

with independent Wiener increments per channel (``dW_mu dW_nu =
delta_mu_nu dt``).  Averaging the outer product over noise realizations
reproduces the double-commutator dephasing master equation.

Integration is Euler-Maruyama (weak order 1); the Monte-Carlo error
dominates the discretization error at the ensemble sizes used here.  Exact
Ito dynamics preserves the norm as a martingale, so the O(dt) discretization
drift is removed by renormalizing after each step (a switch exists to watch
the drift instead).  Each trajectory owns one counter-based stream, and the
ensemble mean is accumulated over fixed-size batches in index order, making
it independent of the worker layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .dynamics import build_tfd
from .exceptions import NumericalError, StepSizeError
from .hermitian import (DensityState, Operator, SpectralData, as_density,
                        apply_operator, spectral_norm)
from .ensembles import RngStream
from .rates import LindbladChannel

__all__ = [
    "TrajectoryConfig", "TrajectoryAverage", "sse_trajectory",
    "average_trajectories", "tfd_two_noise_config", "default_dt",
]

# Trajectories per vectorized batch; fixed so ensemble means do not depend on
# the worker count (parallel chunks align with batch boundaries).
BATCH_SIZE = 256

_NORM_FLOOR = 1e-6


@dataclass(frozen=True)
class TrajectoryConfig:
    """Step size, horizon, ensemble size and seeding for trajectory runs."""

    dt: float
    steps: int
    n_trajectories: int
    master_seed: int
    renormalize: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.steps < 1 or self.n_trajectories < 1:
            raise ValueError("dt, steps and n_trajectories must be positive")


def default_dt(h0: Operator, channels: list[LindbladChannel]) -> float:
    """Step-size default ``1e-3 / (||H0|| + sum gamma ||V||^2)``."""
    scale = spectral_norm(h0) + sum(c.gamma * spectral_norm(c.v) ** 2
                                    for c in channels)
    return 1e-3 / max(scale, 1e-12)


def _check_step(cfg: TrajectoryConfig, channels: list[LindbladChannel]) -> None:
    stiff = sum(c.gamma * spectral_norm(c.v) ** 2 for c in channels)
    if cfg.dt * stiff > 0.01 + 1e-12:
        raise StepSizeError(
            f"dt * sum gamma ||V||^2 = {cfg.dt * stiff:.3g} exceeds 0.01")


def _wiener_increments(seed: int, traj_index: int, steps: int, n_channels: int,
                       dt: float) -> np.ndarray:
    """Increments of shape (steps, n_channels) for one trajectory's stream."""
    gen = RngStream(seed, traj_index).generator()
    return gen.normal(0.0, math.sqrt(dt), size=(steps, n_channels))


def _em_step(psi: np.ndarray, dw: np.ndarray, h0: Operator | None,
             channels: list[LindbladChannel], dt: float) -> np.ndarray:
    """One Euler-Maruyama step on a batch of row states (all terms at t)."""
    new = psi.copy()
    if h0 is not None:
        new += (-1j * dt) * apply_operator(h0, psi)
    for m, c in enumerate(channels):
        vpsi = apply_operator(c.v, psi)
        new += (-0.5 * c.gamma * dt) * apply_operator(c.v, vpsi)
        new += (-1j * math.sqrt(c.gamma)) * dw[:, m, None] * vpsi
    return new


def _evolve_batch(h0: Operator | None, channels: list[LindbladChannel],
                  psi0: np.ndarray, cfg: TrajectoryConfig,
                  traj_indices: range) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a batch of trajectories; returns per-step sums of outer products.

    Output shapes: mean-accumulator (steps+1, d, d) and entry-variance
    accumulator (steps+1, d, d), both summed over the batch.
    """
    d = psi0.shape[0]
    nb = len(traj_indices)
    n_ch = len(channels)
    dw = np.empty((nb, cfg.steps, n_ch))
    for j, idx in enumerate(traj_indices):
        dw[j] = _wiener_increments(cfg.master_seed, idx, cfg.steps, n_ch, cfg.dt)
    psi = np.tile(psi0, (nb, 1))
    sum_outer = np.zeros((cfg.steps + 1, d, d), dtype=complex)
    sum_sq = np.zeros((cfg.steps + 1, d, d))

    def accumulate(step: int, batch: np.ndarray) -> None:
        outer = batch[:, :, None] * batch.conj()[:, None, :]
        sum_outer[step] += outer.sum(axis=0)
        sum_sq[step] += (np.abs(outer) ** 2).sum(axis=0)

    accumulate(0, psi)
    for s in range(cfg.steps):
        psi = _em_step(psi, dw[:, s], h0, channels, cfg.dt)
        norms = np.linalg.norm(psi, axis=1)
        if (norms < _NORM_FLOOR).any():
            raise NumericalError("trajectory norm collapsed; reduce dt")
        if cfg.renormalize:
            psi = psi / norms[:, None]
        accumulate(s + 1, psi)
    return sum_outer, sum_sq


def sse_trajectory(h0: Operator | None, channels: list[LindbladChannel],
                   psi0: DensityState | np.ndarray, cfg: TrajectoryConfig,
                   stream: RngStream) -> np.ndarray:
    """One Euler-Maruyama trajectory; returns states of shape (steps+1, d).

    Deterministic for a given ``stream``.  With ``cfg.renormalize`` the
    returned states have unit norm at every step.
    """
    state = as_density(psi0)
    if not state.is_pure:
        raise ValueError("trajectories start from a pure state")
    _check_step(cfg, channels)
    psi = state.vector[None, :].copy()
    n_ch = len(channels)
    gen = np.random.Generator(stream.bit_generator())
    dw = gen.normal(0.0, math.sqrt(cfg.dt), size=(cfg.steps, n_ch))
    out = np.empty((cfg.steps + 1, state.dim), dtype=complex)
    out[0] = psi[0]
    for s in range(cfg.steps):
        psi = _em_step(psi, dw[s][None, :], h0, channels, cfg.dt)
        nrm = float(np.linalg.norm(psi))
        if nrm < _NORM_FLOOR:
            raise NumericalError("trajectory norm collapsed; reduce dt")
        if cfg.renormalize:
            psi = psi / nrm
        out[s + 1] = psi[0]
    return out


@dataclass(frozen=True)
class TrajectoryAverage:
    """Noise-averaged density matrices on the step grid with entry errors."""

    times: np.ndarray
    mean: np.ndarray              # (steps+1, d, d)
    entry_stderr: np.ndarray      # (steps+1, d, d) magnitude standard error
    n_trajectories: int

    def purity(self) -> np.ndarray:
        """tr(rho_bar^2) of the ensemble mean (biased upward by ~1/N)."""
        return np.real(np.einsum("tij,tji->t", self.mean, self.mean))

    def purity_unbiased(self) -> np.ndarray:
        """U-statistic estimate of tr(rho^2): (N tr(rho_bar^2) - 1)/(N - 1)."""
        n = self.n_trajectories
        if n < 2:
            return self.purity()
        return (n * self.purity() - 1.0) / (n - 1.0)


def _batch_worker(payload) -> tuple[np.ndarray, np.ndarray]:
    h0, channels, psi0, cfg, start, stop = payload
    return _evolve_batch(h0, channels, psi0, cfg, range(start, stop))


def average_trajectories(h0: Operator | None, channels: list[LindbladChannel],
                         psi0: DensityState | np.ndarray, cfg: TrajectoryConfig,
                         workers: int = 1) -> TrajectoryAverage:
    """Noise average of the trajectory outer products.

    The result is an estimator of the dephasing master-equation solution;
    its deviation is bounded by Monte-Carlo noise O(1/sqrt(N)) plus the
    O(dt) weak discretization error.
    """
    state = as_density(psi0)
    if not state.is_pure:
        raise ValueError("trajectories start from a pure state")
    _check_step(cfg, channels)
    n = cfg.n_trajectories
    starts = list(range(0, n, BATCH_SIZE))
    payloads = [(h0, channels, state.vector, cfg, a, min(a + BATCH_SIZE, n))
                for a in starts]
    parts = _pool.run_chunked(_batch_worker, payloads, workers)
    sum_outer = parts[0][0]
    sum_sq = parts[0][1]
    for po, ps in parts[1:]:
        sum_outer = sum_outer + po
        sum_sq = sum_sq + ps
    mean = sum_outer / n
    var = np.maximum(sum_sq / n - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / max(n - 1, 1))
    times = cfg.dt * np.arange(cfg.steps + 1)
    return TrajectoryAverage(times=times, mean=mean, entry_stderr=stderr,
                             n_trajectories=n)


def tfd_two_noise_config(spectral: SpectralData | np.ndarray, beta: float,
                         gamma: float
                         ) -> tuple[np.ndarray, list[LindbladChannel], np.ndarray]:
    """Two-copy configuration whose noise average dephases a thermofield double.

    Both copies carry the same Hamiltonian and are perturbed by independent
    white noises of identical amplitude, so the channels are ``H (x) 1`` and
    ``1 (x) H`` with equal rates.  Everything is expressed in the
    H-eigenbasis, where all three operators are diagonal; the initial state
    carries the thermofield-double weights on the doubled basis.  Returns
    ``(H0_total, channels, psi0)``.
    """
    energies = (spectral.eigenvalues if isinstance(spectral, SpectralData)
                else np.asarray(spectral, dtype=float))
    d = energies.shape[0]
    if d * d > 2 ** 12:
        raise ValueError("doubled dimension capped at 2^12")
    weights = build_tfd(energies, beta, gamma).weights
    e_left = np.repeat(energies, d)
    e_right = np.tile(energies, d)
    h0 = np.diag((e_left + e_right).astype(complex))
    channels = [
        LindbladChannel(gamma, np.diag(e_left.astype(complex))),
        LindbladChannel(gamma, np.diag(e_right.astype(complex))),
    ]
    psi0 = np.zeros(d * d, dtype=complex)
    psi0[np.arange(d) * d + np.arange(d)] = weights
    return h0, channels, psi0

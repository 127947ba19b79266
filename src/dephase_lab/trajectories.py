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
the drift instead).  The trajectories of block ``b`` of the sample engine in
``_pool`` draw their increments from substream ``b`` of one
:class:`RngStream`; one stepping loop evolves a single trajectory or the
whole ensemble as a batch of row states, so results depend only on the
stream and the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .dynamics import build_tfd
from .exceptions import NumericalError, StepSizeError
from .hermitian import _purity, apply_operator, as_state, spectral_norm
from .ensembles import RngStream
from .rates import LindbladChannel, _noise_stiffness
from .specfun import _check_real

_NORM_FLOOR = 1e-6


@dataclass(frozen=True)
class TrajectoryConfig:
    """Step size, horizon and ensemble size for trajectory runs."""

    dt: float
    steps: int
    n_trajectories: int
    renormalize: bool = True

    def __post_init__(self):
        _check_real("dt", self.dt, "positive")
        if self.steps < 1:
            raise ValueError("steps must be positive")


def default_dt(h0: np.ndarray, channels: list[LindbladChannel]) -> float:
    """Step-size default ``1e-3 / (||H0|| + sum gamma ||V||^2)``."""
    scale = spectral_norm(h0) + _noise_stiffness(channels)
    return 1e-3 / max(scale, 1e-12)


def _start(h0: np.ndarray | None, channels: list[LindbladChannel],
           psi0: np.ndarray, cfg: TrajectoryConfig
           ) -> tuple[np.ndarray | None, np.ndarray]:
    """Checked ``(H0, initial vector)``: a pure start and a stable step."""
    psi0 = as_state(psi0)
    if psi0.ndim != 1:
        raise ValueError("trajectories start from a pure state")
    stiff = _noise_stiffness(channels)
    if cfg.dt * stiff > 0.01 + 1e-12:
        raise StepSizeError(
            f"dt * sum gamma ||V||^2 = {cfg.dt * stiff:.3g} exceeds 0.01")
    return (None if h0 is None else np.asarray(h0)), psi0


def _wiener_block(gen: np.random.Generator, m: int, steps: int,
                  n_channels: int, dt: float) -> np.ndarray:
    """Wiener increments of ``m`` trajectories, shape (m, steps, n_channels)."""
    return gen.normal(0.0, math.sqrt(dt), size=(m, steps, n_channels))


# Old name of the block function, still wrapped by perfbench/tracer.py.
_batch_worker = _wiener_block


def _em_states(h0: np.ndarray | None, channels: list[LindbladChannel],
               psi: np.ndarray, dw: np.ndarray, cfg: TrajectoryConfig):
    """Yield the ``(m, d)`` row states at ``t = 0`` and after every step.

    ``psi`` holds the ``m`` initial rows and ``dw`` their increments, of
    shape ``(m, steps, n_channels)``.  Each Euler-Maruyama step takes all
    terms at ``t``.  A row's norm is summed as ``np.linalg.norm`` sums one
    vector, from the dot products of its real and imaginary parts, so it
    does not depend on the batch the row sits in.
    """
    yield psi
    for s in range(cfg.steps):
        new = psi.copy()
        if h0 is not None:
            new += (-1j * cfg.dt) * apply_operator(h0, psi)
        for m, c in enumerate(channels):
            vpsi = apply_operator(c.v, psi)
            new += (-0.5 * c.gamma * cfg.dt) * apply_operator(c.v, vpsi)
            new += (-1j * math.sqrt(c.gamma)) * dw[:, s, m, None] * vpsi
        re, im = new.real[:, None, :], new.imag[:, None, :]
        norms = np.sqrt(re @ re.transpose(0, 2, 1)
                        + im @ im.transpose(0, 2, 1))[:, 0]
        if (norms < _NORM_FLOOR).any():
            raise NumericalError("trajectory norm collapsed; reduce dt")
        psi = new / norms if cfg.renormalize else new
        yield psi


def sse_trajectory(h0: np.ndarray | None, channels: list[LindbladChannel],
                   psi0: np.ndarray, cfg: TrajectoryConfig,
                   stream: RngStream) -> np.ndarray:
    """One Euler-Maruyama trajectory; returns states of shape (steps+1, d).

    Draws from substream 0 of ``stream`` as the first row of a block, so it
    is trajectory 0 of :func:`average_trajectories` on the same stream.  With
    ``cfg.renormalize`` the returned states have unit norm at every step.
    """
    h0, vec = _start(h0, channels, psi0, cfg)
    dw = _wiener_block(stream.sample_generator(0), 1, cfg.steps, len(channels),
                       cfg.dt)
    return np.concatenate(list(_em_states(h0, channels, vec[None, :], dw, cfg)))


@dataclass(frozen=True)
class TrajectoryAverage:
    """Noise-averaged density matrices on the step grid with entry errors."""

    times: np.ndarray
    mean: np.ndarray              # (steps+1, d, d)
    entry_stderr: np.ndarray      # (steps+1, d, d) magnitude standard error
    n_trajectories: int

    def purity(self) -> np.ndarray:
        """tr(rho_bar^2) of the ensemble mean (biased upward by ~1/N)."""
        return _purity(self.mean)

    def purity_unbiased(self) -> np.ndarray:
        """U-statistic estimate of tr(rho^2): (N tr(rho_bar^2) - 1)/(N - 1)."""
        n = self.n_trajectories
        return (n * self.purity() - 1.0) / (n - 1.0)


def average_trajectories(h0: np.ndarray | None, channels: list[LindbladChannel],
                         psi0: np.ndarray, cfg: TrajectoryConfig,
                         rng: RngStream) -> TrajectoryAverage:
    """Noise average of the trajectory outer products.

    Block ``b`` of the sample engine draws its trajectories from substream
    ``b`` of ``rng``.  The result is an estimator of the dephasing
    master-equation solution; its deviation is bounded by Monte-Carlo noise
    O(1/sqrt(N)) plus the O(dt) weak discretization error.
    """
    h0, vec = _start(h0, channels, psi0, cfg)
    n = cfg.n_trajectories
    dw = _pool.gather_samples(_wiener_block, n, rng, 1, cfg.steps,
                              len(channels), cfg.dt)
    d = vec.shape[0]
    sum_outer = np.empty((cfg.steps + 1, d, d), dtype=complex)
    sum_sq = np.empty((cfg.steps + 1, d, d))
    for s, psi in enumerate(_em_states(h0, channels, np.tile(vec, (n, 1)),
                                       dw, cfg)):
        sum_outer[s] = psi.T @ psi.conj()
        prob = np.abs(psi) ** 2
        sum_sq[s] = prob.T @ prob
    mean = sum_outer / n
    var = np.maximum(sum_sq / n - np.abs(mean) ** 2, 0.0)
    return TrajectoryAverage(times=cfg.dt * np.arange(cfg.steps + 1),
                             mean=mean, entry_stderr=np.sqrt(var / (n - 1)),
                             n_trajectories=n)


def tfd_two_noise_config(energies: np.ndarray, beta: float,
                         gamma: float
                         ) -> tuple[np.ndarray, list[LindbladChannel], np.ndarray]:
    """Two-copy configuration whose noise average dephases a thermofield double.

    Both copies carry the same Hamiltonian and are perturbed by independent
    white noises of identical amplitude, so the channels are ``H (x) 1`` and
    ``1 (x) H`` with equal rates.  Everything is expressed in the
    H-eigenbasis, where all three operators are diagonal and are returned as
    length-``d^2`` vectors; the initial state carries the thermofield-double
    weights on the doubled basis.  Returns ``(H0_total, channels, psi0)``.
    """
    energies = np.asarray(energies, dtype=float)
    d = energies.shape[0]
    if d * d > 2 ** 12:
        raise ValueError("doubled dimension capped at 2^12")
    weights = build_tfd(energies, beta, gamma).weights
    e_left = np.repeat(energies, d)
    e_right = np.tile(energies, d)
    channels = [LindbladChannel(gamma, e_left), LindbladChannel(gamma, e_right)]
    psi0 = np.zeros(d * d, dtype=complex)
    psi0[np.arange(d) * d + np.arange(d)] = weights
    return e_left + e_right, channels, psi0

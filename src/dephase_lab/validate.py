"""Self-contained consistency checks runnable from the command line.

Each check pits an implementation against an independent route to the same
number: Monte-Carlo moments against closed forms, trajectory averages
against the master-equation solution, quadrature against a double sum, and
the annealed closed-form rate against the annealed average of sampled
spectra, alongside the Jensen bound between quenched and annealed
log-partition averages.  The CLI ``validate`` command prints one line per
check and exits nonzero when any fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import annealing_check, build_tfd, purity_tfd, purity_tfd_hs
from .ensembles import (RngStream, _gue_spectrum, haar_fourth_moment,
                        haar_fourth_moment_exact, haar_second_moment,
                        haar_second_moment_exact)
from .rates import PAULI, LindbladChannel
from .trajectories import TrajectoryConfig, average_trajectories

# Stream indices reserved per check so one master seed drives them all; no
# two checks draw from the same key.
_STREAMS = {"haar2": 101, "haar4": 102, "annealing": 103, "trajectory": 104,
            "hs": 105, "haar-operators": 999}
_TOL_SE = 4.0                   # Monte-Carlo deviations, in standard errors
_TRAJECTORY_TOL_SCALE = 3.0     # trajectory deviation, in units of 1/sqrt(N)
_HS_TOL = 1e-8                  # quadrature against double sum, absolute
_ANNEALING_BETAS = (0.25, 0.5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_haar_moments(seed: int, n_samples: int) -> list[CheckResult]:
    d = 3
    gen = RngStream(seed, _STREAMS["haar-operators"]).sample_generator()
    xs = []
    for _ in range(3):
        a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        xs.append((a + a.conj().T) / 2.0)
    out = []
    for name, key, moment, exact, ops in (
            ("haar-second-moment", "haar2", haar_second_moment,
             haar_second_moment_exact, xs[:1]),
            ("haar-fourth-moment", "haar4", haar_fourth_moment,
             haar_fourth_moment_exact, xs)):
        mean, se = moment(*ops, n_samples, RngStream(seed, _STREAMS[key]))
        dev = np.abs(mean - exact(*ops))
        ok = bool((dev <= _TOL_SE * np.maximum(se, 1e-12)).all())
        out.append(CheckResult(name, ok, f"max deviation {dev.max():.2e} vs "
                                         f"{_TOL_SE} stderr"))
    return out


def _check_annealing(seed: int, d: int, n_samples: int) -> list[CheckResult]:
    out = []
    # Common random numbers: every beta reads the same draws.
    checks = annealing_check(_ANNEALING_BETAS, d, n_samples,
                             RngStream(seed, _STREAMS["annealing"]))
    for beta, chk in zip(_ANNEALING_BETAS, checks):
        # <ln Z> <= ln <Z> exactly on the same draws (AM-GM): rounding slack only.
        jensen_ok = chk.mean_ln_z <= chk.ln_mean_z + 1e-12 * max(1.0, abs(chk.ln_mean_z))
        mc = chk.rate_annealed_mc
        z = (chk.rate_annealed - mc.mean) / mc.stderr
        gap = (chk.rate_quenched.mean - chk.rate_annealed) / chk.rate_annealed
        ok = bool(jensen_ok and abs(z) <= _TOL_SE)
        out.append(CheckResult(
            f"annealing-beta-{beta:g}", ok,
            f"jensen gap {chk.jensen_gap:+.2e}, annealed rate z {z:+.2f} "
            f"vs {_TOL_SE} stderr, quenched gap {gap:+.2%} at d={d}"))
    return out


def _check_trajectory_vs_master(seed: int, n_traj: int) -> list[CheckResult]:
    gamma = 1.0
    dt = 0.01
    steps = 200                      # gamma t up to 2
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    # Unrenormalized, so a wrong Ito term -gamma V^2 dt / 2 shows in the norm.
    cfg = TrajectoryConfig(dt=dt, steps=steps, n_trajectories=n_traj,
                           renormalize=False)
    avg = average_trajectories(None, [LindbladChannel(gamma, PAULI["z"])],
                               psi0, cfg, RngStream(seed, _STREAMS["trajectory"]))
    off = 0.5 * np.exp(-2.0 * gamma * avg.times)[:, None, None]
    target = np.where(np.eye(2, dtype=bool), 0.5, off)
    dev = np.abs(avg.mean - target).max()
    limit = _TRAJECTORY_TOL_SCALE / math.sqrt(n_traj)
    return [CheckResult("trajectory-vs-master", bool(dev <= limit),
                        f"max entry deviation {dev:.2e} vs {limit:.2e}")]


def _check_hs_quadrature(seed: int) -> list[CheckResult]:
    energies = _gue_spectrum(RngStream(seed, _STREAMS["hs"]).sample_generator(), 8)
    worst = 0.0
    for beta in (0.0, 0.3, 0.7, 1.5, 3.0):
        sys = build_tfd(energies, beta)
        for gt in (0.05, 0.2, 0.5, 1.0, 2.0):
            worst = max(worst, abs(purity_tfd_hs(sys, gt) - purity_tfd(sys, gt)))
    return [CheckResult("hs-vs-double-sum", bool(worst <= _HS_TOL),
                        f"max |quadrature - double sum| = {worst:.2e} vs {_HS_TOL:.0e}")]


def run_validation(seed: int, quick: bool = False) -> list[CheckResult]:
    """Run every check; ``quick`` trims the sample counts to run in under a minute."""
    n_haar = 20_000 if quick else 100_000
    n_ann = 400 if quick else 2000
    d_ann = 40
    n_traj = 2000 if quick else 4000
    results: list[CheckResult] = []
    results += _check_haar_moments(seed, n_haar)
    results += _check_annealing(seed, d_ann, n_ann)
    results += _check_trajectory_vs_master(seed, n_traj)
    results += _check_hs_quadrature(seed)
    return results

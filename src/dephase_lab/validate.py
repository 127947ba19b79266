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
from .ensembles import (RngStream, haar_fourth_moment, haar_fourth_moment_exact,
                        haar_second_moment, haar_second_moment_exact, _gue_matrix)
from .rates import PAULI, LindbladChannel
from .trajectories import TrajectoryConfig, average_trajectories

__all__ = ["CheckResult", "run_validation"]

# Stream indices reserved per check so one master seed drives them all; no
# two checks draw from the same key.
_STREAMS = {"haar2": 101, "haar4": 102, "annealing": 103, "trajectory": 104,
            "hs": 105, "haar-operators": 999}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_haar_moments(seed: int, n_samples: int, tol_se: float = 4.0
                        ) -> list[CheckResult]:
    d = 3
    gen = RngStream(seed, _STREAMS["haar-operators"]).generator()
    xs = []
    for _ in range(3):
        a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        xs.append((a + a.conj().T) / 2.0)
    floor = 1e-12

    mean2, se2 = haar_second_moment(xs[0], n_samples, RngStream(seed, _STREAMS["haar2"]))
    dev2 = np.abs(mean2 - haar_second_moment_exact(xs[0]))
    ok2 = bool((dev2 <= tol_se * np.maximum(se2, floor)).all())
    res2 = CheckResult("haar-second-moment", ok2,
                       f"max deviation {dev2.max():.2e} vs {tol_se} stderr")

    mean4, se4 = haar_fourth_moment(*xs, n_samples, RngStream(seed, _STREAMS["haar4"]))
    dev4 = np.abs(mean4 - haar_fourth_moment_exact(*xs))
    ok4 = bool((dev4 <= tol_se * np.maximum(se4, floor)).all())
    res4 = CheckResult("haar-fourth-moment", ok4,
                       f"max deviation {dev4.max():.2e} vs {tol_se} stderr")
    return [res2, res4]


def _check_annealing(seed: int, d: int, n_samples: int,
                     betas: tuple[float, ...] = (0.25, 0.5),
                     tol_se: float = 4.0) -> list[CheckResult]:
    out = []
    for beta in betas:
        # Common random numbers: every beta reads the same draws.
        chk = annealing_check(beta, d, n_samples, RngStream(seed, _STREAMS["annealing"]))
        jensen_ok = chk.mean_ln_z <= chk.ln_mean_z + 3.0 * chk.ln_z_stderr
        mc = chk.rate_annealed_mc
        z = (chk.rate_annealed - mc.mean) / mc.stderr
        gap = (chk.rate_quenched.mean - chk.rate_annealed) / chk.rate_annealed
        ok = bool(jensen_ok and abs(z) <= tol_se)
        out.append(CheckResult(
            f"annealing-beta-{beta:g}", ok,
            f"jensen gap {chk.jensen_gap:+.2e}, annealed rate z {z:+.2f} "
            f"vs {tol_se} stderr, quenched gap {gap:+.2%} at d={d}"))
    return out


def _check_trajectory_vs_master(seed: int, n_traj: int,
                                tol_scale: float = 3.0) -> list[CheckResult]:
    gamma = 1.0
    dt = 0.01
    steps = 200                      # gamma t up to 2
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    cfg = TrajectoryConfig(dt=dt, steps=steps, n_trajectories=n_traj)
    avg = average_trajectories(None, [LindbladChannel(gamma, PAULI["z"])],
                               psi0, cfg, RngStream(seed, _STREAMS["trajectory"]))
    off = np.abs(avg.mean[:, 0, 1])
    target = 0.5 * np.exp(-2.0 * gamma * avg.times)
    dev = np.abs(off - target).max()
    limit = tol_scale / math.sqrt(n_traj)
    return [CheckResult("trajectory-vs-master", bool(dev <= limit),
                        f"max off-diagonal deviation {dev:.2e} vs {limit:.2e}")]


def _check_hs_quadrature(seed: int, tol: float = 1e-8) -> list[CheckResult]:
    energies = np.linalg.eigvalsh(
        _gue_matrix(8, RngStream(seed, _STREAMS["hs"]).generator()))
    worst = 0.0
    for beta in (0.0, 0.3, 0.7, 1.5, 3.0):
        sys = build_tfd(energies, beta)
        for gt in (0.05, 0.2, 0.5, 1.0, 2.0):
            worst = max(worst, abs(purity_tfd_hs(sys, gt) - purity_tfd(sys, gt)))
    return [CheckResult("hs-vs-double-sum", bool(worst <= tol),
                        f"max |quadrature - double sum| = {worst:.2e} vs {tol:.0e}")]


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

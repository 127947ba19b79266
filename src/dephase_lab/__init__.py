"""Decoherence rates of Markovian dephasing processes.

Simulation library for dephasing under Hermitian Lindblad channels:
random-matrix (GUE) channels with Monte-Carlo adjudication of the closed-form
rate, k-body sigma^z-string channels with their polynomial bounds,
and exact thermofield-double energy dephasing with its finite-d and
semicircle rate formulas.  A CLI (``dephase-lab``) emits the figure data as
deterministic CSV.  Each public name is imported from its module on first
use (PEP 562), so ``python -m dephase_lab`` loads numpy only to sample.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # owner module: the names it exports
    "exceptions": "DimensionMismatchError HermiticityError NumericalError "
                  "StepSizeError",
    "hermitian": "modified_covariance purity spectral_norm",
    "ensembles": "EnsembleEstimate RngStream gue_level_density "
                 "gue_trace_square_mc haar_fourth_moment haar_fourth_moment_exact "
                 "haar_second_moment haar_second_moment_exact hermite_phi sample_gue "
                 "sample_haar_unitary",
    "specfun": "KBodySpec bessel_i_ratio_g beta_crossover "
               "calibrate_epsilon crossover_min_n log_bessel_i1 log_laguerre_l "
               "rate_gue_haar rate_gue_wick rate_kbody_bound rate_tfd_gue_exact "
               "rate_tfd_gue_semicircle z_gue_exact z_gue_semicircle",
    "rates": "LindbladChannel build_kbody_operator build_tbre_operator "
             "decoherence_rate lmg_sector_spectrum rate_gue_mc rate_lmg "
             "tbre_rate_and_bound",
    "dynamics": "AnnealingCheck TfdPurityCurve TfdSystem annealing_check "
                "build_tfd ensemble_purity_tfd evolve_tfd gauss_hermite "
                "master_equation_rk4 purity_inf_tfd purity_tfd purity_tfd_hs rate_tfd",
    "trajectories": "TrajectoryAverage TrajectoryConfig average_trajectories "
                    "default_dt sse_trajectory tfd_two_noise_config",
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)    # a star import binds every public name


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_OWNER})

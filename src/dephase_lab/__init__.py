"""Decoherence rates of Markovian dephasing processes.

Simulation library for dephasing under Hermitian Lindblad channels:
random-matrix (GUE) channels with Monte-Carlo adjudication of the closed-form
rate, k-body sigma^z-string channels with their polynomial bounds,
and exact thermofield-double energy dephasing with its finite-d and
semicircle rate formulas.  A CLI (``dephase-lab``) emits the figure data as
deterministic CSV.
"""

from .exceptions import (DimensionMismatchError, HermiticityError,
                         NumericalError, StepSizeError)
from .hermitian import (SpectralData, eig_hermitian, modified_covariance,
                        purity, spectral_norm)
from .ensembles import (EnsembleEstimate, GueSpec, RngStream,
                        gue_level_density, gue_trace_square_mc,
                        haar_fourth_moment, haar_fourth_moment_exact,
                        haar_second_moment, haar_second_moment_exact,
                        sample_gue, sample_haar_unitary)
from .specfun import (PartitionValue, bessel_i_ratio_g, beta_crossover,
                      gauss_hermite, hermite_phi, log_bessel_i1,
                      log_laguerre_l, rate_tfd_gue_exact,
                      rate_tfd_gue_semicircle, z_gue_exact, z_gue_semicircle)
from .rates import (KBodySpec, LindbladChannel, TbreSpec, build_kbody_operator,
                    build_tbre_hamiltonian, build_tbre_operator,
                    calibrate_epsilon, crossover_min_n, decoherence_rate,
                    lmg_sector_spectrum, rate_gue_haar, rate_gue_mc,
                    rate_gue_wick, rate_kbody_bound, rate_lmg,
                    tbre_rate_and_bound)
from .dynamics import (AnnealingCheck, TfdDensity, TfdPurityCurve, TfdSystem,
                       annealing_check, build_tfd, ensemble_purity_tfd,
                       evolve_tfd, master_equation_rk4, purity_inf_tfd,
                       purity_tfd, purity_tfd_hs, rate_tfd)
from .trajectories import (TrajectoryAverage, TrajectoryConfig,
                           average_trajectories, default_dt, sse_trajectory,
                           tfd_two_noise_config)

__version__ = "0.1.0"

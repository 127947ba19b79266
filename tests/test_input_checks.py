"""One check per input kind: every count goes through ``specfun._check_int``
and every channel operator, Hamiltonian or spectrum through
``hermitian.as_operator``.  Each table row names an entry point, the name its
message carries and the bounds of the count; a CLI flag's row runs ``main``.
Every other refusal, of a value that is neither a count nor an operator, is
a row of one more table, with its error and message."""

import contextlib
import io
import math
import re

import numpy as np
import pytest

from dephase_lab import _pool, trajectories
from dephase_lab._cli import main
from dephase_lab.dynamics import (annealing_check, build_tfd, ensemble_purity_tfd,
                                  evolve_tfd, gauss_hermite, master_equation_rk4,
                                  purity_tfd_hs)
from dephase_lab.ensembles import (RngStream, gue_level_density, gue_trace_square_mc,
                                   haar_fourth_moment, haar_second_moment, hermite_phi,
                                   sample_gue, sample_haar_unitary)
from dephase_lab.exceptions import HermiticityError, NumericalError
from dephase_lab.hermitian import as_operator
from dephase_lab.rates import (PAULI, LindbladChannel, build_kbody_operator,
                               build_tbre_operator, lmg_sector_spectrum, rate_gue_mc,
                               rate_lmg, tbre_rate_and_bound)
from dephase_lab.specfun import (KBodySpec, _check_int, calibrate_epsilon,
                                 crossover_min_n, log_laguerre_l, rate_gue_wick,
                                 rate_kbody_bound, rate_tfd_gue_exact, z_gue_exact)
from dephase_lab.trajectories import (TrajectoryConfig, average_trajectories,
                                      sse_trajectory, tfd_two_noise_config)


def _normals(gen, m, d):
    return gen.standard_normal((m, d))


_PSI = np.array([1.0, 0.0])
_GRID = np.array([0.0, 1.0])
_CFG = dict(dt=0.01, steps=2, n_trajectories=2)


def _cli(*argv):
    """Entry of a CLI count flag: ``main`` on ``argv`` with the count in place
    of ``{}``.  It must exit 2 with nothing on stdout; its stderr is raised
    again as the ``ValueError`` that the table matches.  A count that is a
    whole token is argparse's to convert; one inside a comma-separated list
    is ``_cli._parse_list``'s."""
    def call(n):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([a.replace("{}", str(n)) for a in argv])
            except SystemExit as exc:       # argparse refused the token
                code = exc.code
        assert code == 2 and out.getvalue() == ""
        raise ValueError(err.getvalue())
    call.by_argparse = "{}" in argv
    return call


_TFD = ("tfd", "--n-qubits", "2", "--t-points", "3", "--samples", "4")

# entry point: (call with the count, name in the message, lowest, highest)
COUNTS = {
    "gather_samples-n": (lambda n: _pool.gather_samples(_normals, n, RngStream(1), 1, 2),
                         "n_samples", 2, None),
    "gather_samples-workers": (
        lambda w: _pool.gather_samples(_normals, 4, RngStream(1), w, 2), "workers", 1, None),
    "run_chunked-workers": (lambda w: _pool.run_chunked(abs, [-1], w), "workers", 1, None),
    "rng-seed": (lambda s: RngStream(s, 0), "master_seed", 0, 2 ** 64 - 1),
    "rng-index": (lambda i: RngStream(1, i), "stream_index", 0, 2 ** 64 - 1),
    "sample_gue": (lambda d: sample_gue(d, RngStream(1)), "dimension", 1, None),
    "sample_haar_unitary": (lambda d: sample_haar_unitary(d, RngStream(1)),
                            "dimension", 1, None),
    "haar_second_moment-n": (lambda n: haar_second_moment(PAULI["z"], n, RngStream(1)),
                             "n_samples", 2, None),
    "gue_level_density": (lambda d: gue_level_density(0.5, d), "dimension", 1, None),
    "gue_trace_square_mc-d": (lambda d: gue_trace_square_mc(d, 10, RngStream(1)),
                              "dimension", 1, None),
    "gue_trace_square_mc-n": (lambda n: gue_trace_square_mc(4, n, RngStream(1)),
                              "n_samples", 2, None),
    "rate_gue_mc-d": (lambda d: rate_gue_mc(_PSI, 1.0, d, 10, RngStream(1)),
                      "dimension", 1, None),
    "rate_gue_mc-n": (lambda n: rate_gue_mc(_PSI, 1.0, 2, n, RngStream(1)),
                      "n_samples", 2, None),
    "annealing_check-d": (lambda d: annealing_check([0.5], d, 10, RngStream(1)),
                          "dimension", 1, None),
    "annealing_check-n": (lambda n: annealing_check([0.5], 4, n, RngStream(1)),
                          "n_samples", 2, None),
    "z_gue_exact": (lambda d: z_gue_exact(1.0, d), "dimension", 1, None),
    "rate_tfd_gue_exact": (lambda d: rate_tfd_gue_exact(1.0, d, 1.0), "dimension", 1, None),
    "log_laguerre_l": (lambda n: log_laguerre_l(n, 1, -1.0), "degree", 0, None),
    "hermite_phi": (lambda n: hermite_phi(n, 0.5), "degree", 0, None),
    "gauss_hermite": (gauss_hermite, "node count n", 1, None),
    "kbody-n": (lambda n: KBodySpec(n, 1), "qubit count n", 1, None),
    "kbody-k": (lambda k: KBodySpec(3, k), "locality k", 1, 3),
    "build_kbody_operator": (lambda n: build_kbody_operator(KBodySpec(n, 1)),
                             "qubit count n", 1, 24),
    "crossover_min_n-k": (lambda k: crossover_min_n(k, 0.5), "locality k", 1, None),
    "crossover_min_n-cap": (lambda c: crossover_min_n(1, 0.5, n_cap=c), "n_cap", 1, None),
    "calibrate_epsilon-n0": (lambda n: calibrate_epsilon(n, 1, 1.0), "n0", 1, None),
    "calibrate_epsilon-k": (lambda k: calibrate_epsilon(3, k, 1.0), "locality k", 1, 3),
    "build_tbre_operator": (build_tbre_operator, "spin count n", 1, 12),
    "tbre_rate_and_bound": (lambda n: tbre_rate_and_bound(n, _PSI, 1.0),
                            "spin count n", 2, None),
    "lmg_sector_spectrum": (lambda n: lmg_sector_spectrum(n, 1.0), "spin count n", 1, None),
    "rate_lmg": (lambda n: rate_lmg(n, 1.0, 0.5, 1.0), "spin count n", 2, None),
    "ensemble_purity_tfd-qubits": (
        lambda n: ensemble_purity_tfd(n, [0.5], 1.0, _GRID, 4, RngStream(1)),
        "n_qubits", 1, 10),
    "ensemble_purity_tfd-n": (
        lambda n: ensemble_purity_tfd(2, [0.5], 1.0, _GRID, n, RngStream(1)),
        "n_samples", 2, None),
    "trajectory-steps": (lambda s: TrajectoryConfig(**dict(_CFG, steps=s)), "steps", 1, None),
    "trajectory-count": (lambda n: TrajectoryConfig(**dict(_CFG, n_trajectories=n)),
                         "n_trajectories", 1, None),
    "average_trajectories": (
        lambda n: average_trajectories(None, [LindbladChannel(0.5, PAULI["z"])], _PSI,
                                       TrajectoryConfig(**dict(_CFG, n_trajectories=n)),
                                       RngStream(1)),
        "n_trajectories", 2, None),
    "rk4-steps": (lambda s: master_equation_rk4(None, [], _PSI, 0.01, s), "steps", 0, None),
    "rk4-store_every": (lambda e: master_equation_rk4(None, [], _PSI, 0.01, 2, e),
                        "store_every", 1, None),
    "cli-dims": (_cli("rate-gue", "--dims", "2,{}", "--samples", "4"),
                 "--dims", 1, 1024),
    "cli-k-list": (_cli("crossover", "--k-list", "{},2"), "--k-list", 1, None),
    "cli-n-max": (_cli("crossover", "--k-list", "1,3", "--n-max", "{}"),
                  "--n-max", 3, 1023),
    "cli-n0": (_cli("crossover", "--n0", "{}"), "--n0", 1, 1023),
    "cli-n-qubits": (_cli(*_TFD, "--n-qubits", "{}"), "--n-qubits", 1, 10),
    "cli-tfd-samples": (_cli(*_TFD, "--samples", "{}"), "--samples", 2, None),
    "cli-t-points": (_cli(*_TFD, "--t-points", "{}"), "--t-points", 2, None),
    "cli-rate-gue-samples": (_cli("rate-gue", "--dims", "2", "--samples", "{}"),
                             "--samples", 2, None),
    "cli-seed": (_cli("crossover", "--n-max", "3", "--seed", "{}"),
                 "--seed", 0, 2 ** 64 - 1),
    "cli-threads": (_cli("tfd", "--formula-only", "--threads", "{}"), "--threads", 1, None),
}


def _not_an_integer(call, name, bad):
    """A library count or a list flag's token refuses a non-integer in
    ``_check_int``'s words; argparse refuses a whole-token flag in its own."""
    if getattr(call, "by_argparse", False):
        return f"argument {name}: invalid int value: '{bad}'"
    return f"{name} must be an integer"


def _count_rows():
    for entry, (call, name, lo, hi) in sorted(COUNTS.items()):
        for bad in (2.5, 4.0, True):
            yield pytest.param(entry, bad, _not_an_integer(call, name, bad),
                               id=f"{entry}-{bad!r}")
        yield pytest.param(entry, lo - 1, f"{name} must be at least {lo}",
                           id=f"{entry}-below")
        if hi is not None:
            yield pytest.param(entry, hi + 1, f"{name} must be at most {hi}",
                               id=f"{entry}-above")


@pytest.mark.parametrize("entry,bad,message", list(_count_rows()))
def test_every_count_is_checked_by_one_rule(entry, bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        COUNTS[entry][0](bad)


# entry point: (call with the bad value, the bad value, error, message)
REFUSALS = {
    "cli-empty-list": (_cli("rate-gue", "--dims", "{}"), ",", ValueError,
                       "--dims must list at least one value"),
    "cli-dimension-below-1": (_cli("tfd", "--formula-only", "--log2-dim", "{}"), -1.5,
                              ValueError, "dimension must be at least 1"),
    "haar-mixed-dimension": (
        lambda x: haar_fourth_moment(PAULI["z"], x, PAULI["z"], 4, RngStream(1)),
        np.eye(3), ValueError, "operators must share one dimension"),
    "rate_gue_wick-purity": (lambda p: rate_gue_wick(4, 1.0, p), 1.5, ValueError,
                             "purity must lie in (0, 1]"),
    "rate_kbody_bound-mode": (lambda m: rate_kbody_bound(KBodySpec(3, 1), 1.0, m),
                              "binomial", ValueError, "unknown mode 'binomial'"),
    # n_cap < k leaves the scan empty; the mode is checked before it.
    "crossover_min_n-mode": (lambda m: crossover_min_n(5, 0.5, m, n_cap=3), "bogus",
                             ValueError, "unknown mode 'bogus'"),
    "sse_trajectory-mixed-start": (
        lambda rho: sse_trajectory(None, [], rho, TrajectoryConfig(**_CFG), RngStream(1)),
        np.eye(2) / 2, ValueError, "trajectories start from a pure state"),
    "trajectory-norm-collapse": (
        lambda floor: _with_norm_floor(floor, sse_trajectory, None,
                                       [LindbladChannel(0.5, PAULI["z"])], _PSI,
                                       TrajectoryConfig(**_CFG), RngStream(1)),
        2.0, NumericalError, "trajectory norm collapsed; reduce dt"),
}


def _with_norm_floor(floor, call, *args):
    """``call(*args)`` with the trajectories' norm floor at ``floor``: above 1,
    the first step's unit norm counts as a collapse."""
    saved, trajectories._NORM_FLOOR = trajectories._NORM_FLOOR, floor
    try:
        return call(*args)
    finally:
        trajectories._NORM_FLOOR = saved


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_every_other_refusal_names_its_input(entry):
    call, bad, error, message = REFUSALS[entry]
    with pytest.raises(error, match=re.escape(message)):
        call(bad)


# entry point taking one time: call with the time
ONE_TIME = {
    "evolve_tfd": lambda t: evolve_tfd(build_tfd(np.arange(3.0), 0.5), t),
    "purity_tfd_hs": lambda t: purity_tfd_hs(build_tfd(np.arange(3.0), 0.5), t),
}


@pytest.mark.parametrize("t", [[0.5, 1.0], np.array([0.5, 1.0]), [0.5]],
                         ids=["list", "array", "one-entry"])
@pytest.mark.parametrize("entry", sorted(ONE_TIME))
def test_a_single_time_is_a_scalar(entry, t):
    # Both take one time, so an array is refused by name, not by a numpy error.
    with pytest.raises(ValueError, match=re.escape("time must be a scalar")):
        ONE_TIME[entry](t)
    assert np.isfinite(ONE_TIME[entry](np.float64(0.5))).all()


def test_rk4_without_a_hamiltonian_is_a_zero_one():
    # h0=None is no Hamiltonian, as in the trajectory functions.
    ch = [LindbladChannel(0.7, PAULI["z"])]
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for state in (psi, np.outer(psi, psi)):
        got = master_equation_rk4(None, ch, state, 0.01, 20, 5)
        want = master_equation_rk4(np.zeros((2, 2)), ch, state, 0.01, 20, 5)
        assert got.tobytes() == want.tobytes()


def test_the_doubled_dimension_is_capped():
    with pytest.raises(ValueError, match="doubled dimension must be at most 4096"):
        tfd_two_noise_config(np.arange(65.0), 0.5, 1.0)
    assert len(tfd_two_noise_config(np.arange(64.0), 0.5, 1.0)[0]) == 4096


def test_a_count_is_returned_as_a_python_int():
    for n in (3, np.int64(3), np.uint8(3)):
        got = _check_int("n", n, 1)
        assert got == 3 and type(got) is int
    with pytest.raises(ValueError, match="n must be an integer"):
        _check_int("n", np.True_, 0)
    with pytest.raises(ValueError, match="n must be an integer"):
        _check_int("n", np.float64(3.0), 0)


def test_no_two_seeds_alias_one_stream():
    # A numpy integer key is the same key; a float key is refused, where it
    # used to replay the stream of its integer part.
    want = RngStream(1, 2).sample_generator().standard_normal(4)
    got = RngStream(np.uint64(1), np.int64(2)).sample_generator().standard_normal(4)
    assert got.tobytes() == want.tobytes()
    top = RngStream(2 ** 64 - 1, 2 ** 64 - 1).sample_generator().standard_normal(2)
    assert np.isfinite(top).all()
    for seed, index in ((1.5, 0), (1, 2.7), (-1, 0)):
        with pytest.raises(ValueError):
            RngStream(seed, index)


# entry point: call with the operator
OPERATORS = {
    "LindbladChannel": (lambda op: LindbladChannel(1.0, op), "channel operator"),
    "master_equation_rk4": (
        lambda op: master_equation_rk4(op, [], _PSI, 0.01, 2), "h0"),
    "sse_trajectory": (lambda op: sse_trajectory(op, [], _PSI, TrajectoryConfig(**_CFG),
                                                 RngStream(1)), "h0"),
    "build_tfd": (lambda op: build_tfd(op, 0.5), "energies"),
}

_BAD_OPERATORS = {
    "nan": ([np.nan, 1.0], ValueError, "must have finite entries"),
    "inf": ([np.inf, 1.0], ValueError, "must have finite entries"),
    "non-hermitian": ([[0.0, 1.0], [0.0, 0.0]], HermiticityError, "is not Hermitian"),
    "complex-diagonal": ([1.0, 1j], HermiticityError, "is not Hermitian"),
    "non-square": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ValueError,
                   "must be a 1-D array or a square 2-D one"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_OPERATORS))
@pytest.mark.parametrize("entry", sorted(OPERATORS))
def test_every_operator_is_checked_by_one_rule(entry, kind):
    call, name = OPERATORS[entry]
    op, error, message = _BAD_OPERATORS[kind]
    with pytest.raises(error, match=re.escape(f"{name} {message}")):
        call(np.array(op))


def test_as_operator_keeps_the_array_and_its_tolerance():
    diag = np.array([1, -1])
    assert as_operator(diag) is diag and as_operator(diag).dtype == diag.dtype
    near = PAULI["x"] + 1e-13j * np.eye(2)          # within 1e-12 of Hermitian
    assert as_operator(near) is not None
    assert LindbladChannel(1.0, [1.0, -1.0]).v.dtype == float
    with pytest.raises(ValueError, match="energies must be a vector"):
        build_tfd(PAULI["z"].real, 0.5)


@pytest.mark.parametrize("n", [0, 1, 16])
@pytest.mark.parametrize("alpha,message", [
    (math.nan, "alpha + 1 must be finite"), (math.inf, "alpha + 1 must be finite"),
    (-1.0, "alpha + 1 must be positive"), (-2.0, "alpha + 1 must be positive")])
def test_log_laguerre_l_refuses_a_bad_alpha(n, alpha, message):
    # alpha > -1 keeps every recurrence term positive for x <= 0.
    with pytest.raises(ValueError, match=re.escape(message)):
        log_laguerre_l(n, alpha, 0.0)
    assert log_laguerre_l(n, -0.5, 0.0) == pytest.approx(
        math.log(math.comb(2 * n, n) / 4 ** n) if n else 0.0, rel=1e-13)

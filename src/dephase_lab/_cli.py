"""Command-line front end emitting figure data as deterministic CSV.

Commands
--------
rate-gue   Decoherence-rate adjudication over GUE channels: Monte-Carlo mean
           per dimension next to the two closed-form candidates.
crossover  GUE rate vs k-body bounds over the qubit number, with the
           amplitude calibrated at a reference size, plus the per-k minimum
           qubit number where the GUE rate wins for good.
tfd        Thermofield-double purity decay (GUE ensemble) and the matching
           closed-form rates; a formula-only mode evaluates the rate columns
           for dimensions far beyond anything simulable.
validate   Cross-route consistency checks; nonzero exit on failure.

Identical command line and seed give byte-identical CSV, independent of
``--threads``; floats are printed with 17 significant digits so they
round-trip exactly.  The CLI reads no environment variable.  It writes one,
``OPENBLAS_NUM_THREADS=1``, for its own process and its pool workers (see
:func:`run`), so ``--threads N`` is N CPUs.  ``rate-gue`` calls no BLAS, so
its bytes do not depend on the OpenBLAS core type or on numpy's SIMD level;
sampled ``tfd`` purity still depends on the latter through ``np.exp``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  A
non-finite value, a float overflow or a division by zero is a numerical
failure: no CSV is written.  Only the sampling commands import numpy, so
``crossover`` and ``tfd --formula-only`` run on ``specfun``'s scalar math.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import math
import os
import sys

from .exceptions import NumericalError
from .specfun import (_SAMPLING_LOG2_CAP, KBodySpec, _check_int, _check_real,
                      beta_crossover, calibrate_epsilon, crossover_min_n,
                      rate_gue_haar, rate_gue_wick, rate_kbody_bound,
                      rate_tfd_gue_exact, rate_tfd_gue_semicircle)

SCHEMA_COMMENT = "# dephase-lab schema v14"
DEFAULT_SEED = 20250117
# Largest log2(dimension) for which the finite-d Laguerre rate is evaluated.
EXACT_RATE_LOG2_CAP = 14


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(path: str | None, comments: list[str], header: list[str],
          rows: list[list]) -> None:
    """Write the CSV: the schema line, the command's ``comments``, the header
    and the rows.  Raise ``NumericalError`` before writing anything when a
    float in a row is not finite."""
    buf = io.StringIO()
    for line in [SCHEMA_COMMENT, *comments]:
        buf.write(line + "\r\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        for name, v in zip(header, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericalError(f"{name} is {_fmt(v)} in the row for "
                                     f"{header[0]}={_fmt(row[0])}")
        writer.writerow([_fmt(v) for v in row])
    _write(path, buf.getvalue())


def _write(path: str | None, data: str) -> None:
    """Write ``data`` to ``path``, or to stdout without one."""
    if path is None:
        sys.stdout.write(data)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(data)


def _parse_list(flag: str, text: str, kind, *bounds) -> list:
    """The values of a comma-separated list flag, each checked by
    ``_check_int`` (``kind=int``, ``bounds`` are ``lo[, hi]``) or by
    ``_check_real`` (``bounds`` is the domain); an empty list is refused,
    and a token that is not an integer (or a number) is refused by name."""
    check, noun = (_check_int, "an integer") if kind is int else (_check_real, "a number")

    def value(tok: str):
        try:
            return kind(tok)
        except ValueError:
            raise ValueError(f"{flag} must be {noun}") from None
    values = [check(flag, value(tok), *bounds) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"{flag} must list at least one value")
    return values


def cmd_rate_gue(args) -> int:
    dims = _parse_list("--dims", args.dims, int, 1, 2 ** _SAMPLING_LOG2_CAP)
    _check_real("--gamma", args.gamma, "positive")
    _check_int("--samples", args.samples, 2)
    import numpy as np
    from . import ensembles, rates
    rows = []
    for j, d in enumerate(dims):
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
        est = rates.rate_gue_mc(psi, args.gamma, d, args.samples,
                                ensembles.RngStream(args.seed, j),
                                workers=args.threads)
        rows.append([d, args.gamma, rate_gue_haar(d, args.gamma),
                     rate_gue_wick(d, args.gamma), est.mean, est.stderr,
                     args.samples, args.seed])
    comments = [f"# rate-gue: dims={args.dims} gamma={_fmt(args.gamma)} "
                f"samples={args.samples} seed={args.seed}"]
    _emit(args.output, comments,
          ["d", "gamma", "rate_haar", "rate_wick", "rate_mc_mean",
           "rate_mc_stderr", "n_samples", "seed"], rows)
    return 0


def cmd_crossover(args) -> int:
    k_list = _parse_list("--k-list", args.k_list, int, 1)
    # 2**1023 is the largest power of two in a double; calibration is at k = 1.
    _check_int("--n-max", args.n_max, max(k_list), 1023)
    _check_int("--n0", args.n0, 1, 1023)
    _check_real("--gamma", args.gamma, "positive")
    # Reference-size calibration at k = 1, where both bound modes coincide.
    eps_sq = calibrate_epsilon(args.n0, 1, args.gamma)
    eps = math.sqrt(eps_sq)
    comments = [f"# crossover: k_list={args.k_list} n_max={args.n_max} "
                f"n0={args.n0} gamma={_fmt(args.gamma)} mode={args.mode} "
                f"seed={args.seed}",
                f"# epsilon_sq={_fmt(eps_sq)}"]
    for mode in ("approx", "exact-binomial"):
        for k in k_list:
            n_min = crossover_min_n(k, eps_sq, mode, n_cap=max(64, args.n_max))
            shown = "none" if n_min is None else str(n_min)
            comments.append(f"# crossover_min_n k={k} mode={mode}: {shown}")
    header = ["n", "rate_gue", "rate_gue_wick"]
    header += [f"rate_kbody_k{k}" for k in k_list]
    rows = []
    for n in range(1, args.n_max + 1):
        row = [n, rate_gue_haar(2 ** n, args.gamma),
               rate_gue_wick(2 ** n, args.gamma)]
        row += ["" if n < k else rate_kbody_bound(KBodySpec(n, k, eps),
                                                  args.gamma, args.mode)
                for k in k_list]
        rows.append(row)
    _emit(args.output, comments, header, rows)
    return 0


def cmd_tfd(args) -> int:
    betas = _parse_list("--beta-list", args.beta_list, float)
    _check_real("--gamma", args.gamma, "positive")
    _check_real("--t-max", args.t_max, "positive")
    _check_int("--t-points", args.t_points, 2)
    flag, log2d = (("--n-qubits", args.n_qubits) if args.log2_dim is None
                   else ("--log2-dim", args.log2_dim))
    _check_real(flag, log2d, None)
    if args.log2_dim is not None and not args.formula_only:
        raise ValueError("--log2-dim applies only with --formula-only")
    try:
        dim = 2.0 ** log2d
    except OverflowError:
        raise ValueError(f"{flag} is too large: 2**{_fmt(log2d)} overflows a "
                         "double") from None
    # The finite-d rate needs an integer dimension: a whole-number log2d at
    # or below the cap.  The other rate columns use 2**log2d throughout.
    exact_d = (int(round(dim)) if log2d <= EXACT_RATE_LOG2_CAP
               and log2d == int(log2d) else None)
    header = ["beta", "gamma_t", "purity_mean", "purity_stderr", "purity_inf",
              "rate_exact", "rate_semicircle", "rate_high_t", "rate_low_t"]
    if args.formula_only:
        rows = [[beta, "", "", "", "", *_rate_columns(beta, exact_d, dim, args.gamma)]
                for beta in betas]
    else:
        _check_int("--n-qubits", args.n_qubits, 1, _SAMPLING_LOG2_CAP)
        _check_int("--samples", args.samples, 2)
        import numpy as np
        from . import dynamics, ensembles
        grid = np.linspace(0.0, args.t_max, args.t_points)
        # One spectrum per sample, read by every beta.
        curves = dynamics.ensemble_purity_tfd(
            args.n_qubits, betas, args.gamma, grid, args.samples,
            ensembles.RngStream(args.seed, 0), workers=args.threads)
        rows = []
        for beta, curve in zip(betas, curves):
            rates = _rate_columns(beta, exact_d, dim, args.gamma)
            for i, gt in enumerate(grid):
                rows.append([beta, float(gt), float(curve.purity.mean[i]),
                             float(curve.purity.stderr[i]),
                             float(curve.purity_inf.mean), *rates])
    comments = [f"# tfd: n_qubits={args.n_qubits} beta_list={args.beta_list} "
                f"gamma={_fmt(args.gamma)} t_max={_fmt(args.t_max)} "
                f"t_points={args.t_points} samples={args.samples} "
                f"seed={args.seed} formula_only={args.formula_only} "
                f"log2_dim={args.log2_dim}",
                f"# beta_c={_fmt(beta_crossover(dim))}"]
    _emit(args.output, comments, header, rows)
    return 0


def _rate_columns(beta: float, exact_d: int | None, dim: float,
                  gamma: float) -> list:
    """The four rate columns of a ``tfd`` row, blank where the README says."""
    low_t = 6.0 * gamma / beta / beta if beta > 0 else ""
    return ["" if exact_d is None else rate_tfd_gue_exact(beta, exact_d, gamma),
            rate_tfd_gue_semicircle(beta, dim, gamma), 2.0 * gamma * dim, low_t]


def cmd_validate(args) -> int:
    from .validate import run_validation
    results = run_validation(args.seed, quick=args.quick)
    width = max(len(r.name) for r in results)
    failures = sum(not r.passed for r in results)
    lines = [f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}\n"
             for r in results]
    lines.append(f"{failures} of {len(results)} checks failed\n"
                 if failures else f"all {len(results)} checks passed\n")
    _write(args.output, "".join(lines))
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephase-lab",
        description="Decoherence rates of Markovian dephasing: random-matrix "
                    "channels, k-body bounds, thermofield-double purity decay.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="master seed in [0, 2**64) (default: %(default)s)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for ensemble loops, at most "
                            "one per core (validate accepts it but runs "
                            "serially)")
        p.add_argument("-o", "--output", default=None,
                       help="output path of the CSV or the validate report "
                            "(default: stdout)")

    p = sub.add_parser("rate-gue", help="GUE-channel rate sweep with MC adjudication")
    p.add_argument("--dims", default="2,4,8,16,32,64",
                   help="comma-separated dimensions")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=20000)
    common(p)
    p.set_defaults(func=cmd_rate_gue)

    p = sub.add_parser("crossover", help="GUE rate vs k-body bounds over qubit number")
    p.add_argument("--k-list", default="1,2,3,4,5")
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--n0", type=int, default=1,
                   help="reference size where the curves are calibrated")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--mode", choices=("approx", "exact-binomial"),
                   default="approx", help="k-body bound used for the columns")
    common(p)
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("tfd", help="thermofield-double purity decay and rates")
    p.add_argument("--n-qubits", type=int, default=5)
    p.add_argument("--beta-list", default="0,0.1,1")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=10.0,
                   help="largest gamma*t on the grid")
    p.add_argument("--t-points", type=int, default=41)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--formula-only", action="store_true",
                   help="skip sampling; closed-form rate columns only")
    p.add_argument("--log2-dim", type=float, default=None,
                   help="log2 of the dimension; only with --formula-only "
                        "(default: --n-qubits)")
    common(p)
    p.set_defaults(func=cmd_tfd)

    p = sub.add_parser("validate", help="run cross-route consistency checks")
    p.add_argument("--quick", action="store_true",
                   help="smaller sample counts, runs in under a minute")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_int("--threads", args.threads, 1)
        _check_int("--seed", args.seed, 0, 2 ** 64 - 1)
        return args.func(args)
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:   # a request too large for memory
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry of ``python -m dephase_lab`` and of the
    ``dephase-lab`` script: :func:`main` on ``sys.argv``, between two settings
    of the process.

    It pins OpenBLAS to one thread before anything imports numpy, so no launch
    starts an idle BLAS thread and forked pool workers inherit the pin.  It
    freezes the collector before it returns, so interpreter shutdown skips a
    full collection over numpy's objects.  :func:`main`, the in-process entry,
    touches neither the environment nor the collector.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return main()
    finally:
        gc.freeze()

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
round-trip exactly.  Environment variables are never consulted.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  A
non-finite value, a float overflow or a division by zero is a numerical
failure: no CSV is written.  Only the sampling commands import numpy, so
``crossover`` and ``tfd --formula-only`` run on ``specfun``'s scalar math.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from .exceptions import NumericalError
from .specfun import (_SAMPLING_LOG2_CAP, KBodySpec, _check_real, beta_crossover,
                      calibrate_epsilon, crossover_min_n, rate_gue_haar,
                      rate_gue_wick, rate_kbody_bound, rate_tfd_gue_exact,
                      rate_tfd_gue_semicircle)

SCHEMA_COMMENT = "# dephase-lab schema v8"
DEFAULT_SEED = 20250117
# Largest log2(dimension) for which the finite-d Laguerre rate is evaluated.
EXACT_RATE_LOG2_CAP = 14


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(path: str | None, comments: list[str], header: list[str],
          rows: list[list]) -> None:
    """Write the CSV, or raise ``NumericalError`` before writing anything
    when a float in a row is not finite."""
    buf = io.StringIO()
    for line in comments:
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


def _parse_list(text: str, kind=float) -> list:
    return [kind(tok) for tok in text.split(",") if tok.strip() != ""]


def cmd_rate_gue(args) -> int:
    dims = _parse_list(args.dims, int)
    if not dims or any(not 1 <= d <= 2 ** _SAMPLING_LOG2_CAP for d in dims):
        raise ValueError(f"--dims must list dimensions between 1 and "
                         f"{2 ** _SAMPLING_LOG2_CAP}")
    _check_real("--gamma", args.gamma, "positive")
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
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
    comments = [SCHEMA_COMMENT,
                f"# rate-gue: dims={args.dims} gamma={_fmt(args.gamma)} "
                f"samples={args.samples} seed={args.seed}"]
    _emit(args.output, comments,
          ["d", "gamma", "rate_haar", "rate_wick", "rate_mc_mean",
           "rate_mc_stderr", "n_samples", "seed"], rows)
    return 0


def cmd_crossover(args) -> int:
    k_list = _parse_list(args.k_list, int)
    if not k_list or any(k < 1 for k in k_list):
        raise ValueError("--k-list must list localities >= 1")
    if args.n_max < max(k_list):
        raise ValueError("--n-max must reach the largest k")
    for flag, n in (("--n-max", args.n_max), ("--n0", args.n0)):
        if n > 1023:
            raise ValueError(f"{flag} is too large: 2**{n} overflows a double")
    _check_real("--gamma", args.gamma, "positive")
    # Reference-size calibration at k = 1, where both bound modes coincide.
    eps_sq = calibrate_epsilon(args.n0, 1, args.gamma)
    eps = math.sqrt(eps_sq)
    comments = [SCHEMA_COMMENT,
                f"# crossover: k_list={args.k_list} n_max={args.n_max} "
                f"n0={args.n0} mode={args.mode} seed={args.seed}",
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
    betas = [_check_real("--beta-list", b) for b in _parse_list(args.beta_list)]
    if not betas:
        raise ValueError("--beta-list must list inverse temperatures >= 0")
    _check_real("--gamma", args.gamma, "positive")
    _check_real("--t-max", args.t_max, "positive")
    if args.t_points < 2:
        raise ValueError("--t-points must be at least 2")
    log2d = args.log2_dim if args.log2_dim is not None else args.n_qubits
    _check_real("--log2-dim", log2d, None)
    if args.log2_dim is not None and not args.formula_only:
        raise ValueError("--log2-dim applies only with --formula-only")
    try:
        dim = 2.0 ** log2d
    except OverflowError:
        raise ValueError("--log2-dim is too large: 2**log2d overflows a "
                         "double") from None
    header = ["beta", "gamma_t", "purity_mean", "purity_stderr", "purity_inf",
              "rate_exact", "rate_semicircle", "rate_high_t", "rate_low_t"]
    rows: list[list] = []
    if args.formula_only:
        # The finite-d rate needs an integer dimension: a whole-number
        # log2d at or below the cap.  Other rows use 2**log2d throughout.
        exact_d = (int(round(dim)) if log2d <= EXACT_RATE_LOG2_CAP
                   and log2d == int(log2d) else None)
        for beta in betas:
            rows.append([beta, "", "", "", "",
                         *_rate_columns(beta, exact_d, dim, args.gamma)])
    else:
        if not 1 <= args.n_qubits <= _SAMPLING_LOG2_CAP:
            raise ValueError(f"--n-qubits must be between 1 and "
                             f"{_SAMPLING_LOG2_CAP} when sampling")
        if args.samples < 2:
            raise ValueError("--samples must be at least 2")
        import numpy as np
        from . import dynamics, ensembles
        grid = np.linspace(0.0, args.t_max, args.t_points)
        # One spectrum per sample, read by every beta.
        curves = dynamics.ensemble_purity_tfd(
            args.n_qubits, betas, args.gamma, grid, args.samples,
            ensembles.RngStream(args.seed, 0), workers=args.threads)
        for beta, curve in zip(betas, curves):
            rates = _rate_columns(beta, 2 ** args.n_qubits, dim, args.gamma)
            for i, gt in enumerate(grid):
                rows.append([beta, float(gt), float(curve.purity.mean[i]),
                             float(curve.purity.stderr[i]),
                             float(curve.purity_inf.mean), *rates])
    comments = [SCHEMA_COMMENT,
                f"# tfd: n_qubits={args.n_qubits} beta_list={args.beta_list} "
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
    try:
        low_t = 6.0 * gamma / beta ** 2 if beta > 0 else ""
    except OverflowError:           # beta**2 overflows, 6 gamma/beta^2 need not
        low_t = 6.0 * gamma / beta / beta
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
        if args.threads < 1:
            raise ValueError("--threads must be at least 1")
        if not 0 <= args.seed < 2 ** 64:
            raise ValueError("--seed must lie in [0, 2**64)")
        return args.func(args)
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:   # a request too large for memory
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

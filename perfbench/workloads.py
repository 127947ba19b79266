"""Workload definitions and the output checks of the dephase-lab benchmark.

A workload is a fixed list of CLI commands (one *pass*), built from the
benchmark seed.  Each command comes with a checker that parses its output
and returns one :class:`Op` per checked item (a CSV row, a crossover value,
a validation line).  Every reference value is computed here, apart from the
program: exact rationals for the GUE closed forms and the crossover scan,
60-digit mpmath for the Laguerre and Bessel-ratio rates, and physical
properties (bounds, monotonicity) for the sampled purity curves.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import mpmath

ORACLE_DIGITS = 60

# Relative tolerances of the closed-form columns.  The Laguerre rate's
# documented precision decays with d to 3e-7 at d = 2^14 (beta = 3); the
# Bessel ratio g = I2/I1 is documented to 1e-12, so 1e-9 leaves three orders
# of magnitude for the 1 - 3g/x - g^2 combination.
RATE_EXACT_RTOL = 1e-6
RATE_SEMICIRCLE_RTOL = 1e-9
# Exact-arithmetic columns (d^2/(d+1), d-1, 2 gamma d, 6 gamma/beta^2): a
# few units in the last place.
EXACT_RTOL = 1e-15
# Slack for purity properties that hold exactly in real arithmetic.
PURITY_SLACK = 1e-12
# The MC mean must lie within this many standard errors of Gamma (d-1).
MC_Z = 5.0
EXACT_RATE_LOG2_CAP = 14
GAMMA = 1.0


@dataclass(frozen=True)
class Op:
    """One checked output item.  ``known`` marks the failure of a known fault."""

    name: str
    ok: bool
    detail: str = ""
    known: bool = False


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[bytes, int], list[Op]]


# ---------------------------------------------------------------- oracles


@lru_cache(maxsize=None)
def oracle_rate_exact(beta: str, d: int) -> float:
    """``4 gamma d^2/dbeta^2 ln <Z>`` with ``<Z> = e^{b^2/4} L^(1)_{d-1}(-b^2/2)``."""
    def ln_z(b):
        return b * b / 4 + mpmath.log(mpmath.laguerre(d - 1, 1, -b * b / 2))
    with mpmath.workdps(ORACLE_DIGITS):
        return float(4 * GAMMA * mpmath.diff(ln_z, mpmath.mpf(beta), 2))


@lru_cache(maxsize=None)
def oracle_rate_semicircle(beta: str, log2d: int) -> float:
    """``8 gamma d [1 - 3 g/x - g^2]``, ``g = I_2(x)/I_1(x)``, ``x = sqrt(2 d) beta``."""
    with mpmath.workdps(ORACLE_DIGITS):
        d = mpmath.mpf(2) ** log2d
        b = mpmath.mpf(beta)
        if b == 0:
            return float(2 * GAMMA * d)
        x = mpmath.sqrt(2 * d) * b
        g = mpmath.besseli(2, x) / mpmath.besseli(1, x)
        return float(8 * GAMMA * d * (1 - 3 * g / x - g * g))


def oracle_crossover_min_n(k: int, mode: str, n_cap: int) -> int | None:
    """First n of the final regime where d^2/(d+1) beats the k-body bound.

    Exact rational scan over every integer n in ``[k, n_cap]``, with the
    amplitude calibrated at n0 = 1, k = 1 (``eps^2 = 2/3``); a tie counts as
    not crossed.
    """
    eps_sq = Fraction(2, 3)
    last_not, crossed = None, False
    for n in range(k, n_cap + 1):
        gue = Fraction(4 ** n, 2 ** n + 1)
        if mode == "approx":
            bound = 2 * eps_sq * Fraction(n ** (2 * k), math.factorial(k) ** 2)
        else:
            bound = 2 * eps_sq * math.comb(n, k) ** 2
        crossed = gue > bound
        if not crossed:
            last_not = n
    if not crossed:
        return None
    return k if last_not is None else last_not + 1


# ---------------------------------------------------------------- helpers


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)


def _table(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, list(csv.DictReader(io.StringIO("\n".join(body))))


def _failed_command(name: str, rc: int, n_ops: int) -> list[Op]:
    return [Op(f"{name}[{i}]", False, f"exit code {rc}") for i in range(n_ops)]


# ---------------------------------------------------------------- gue-sweep


def check_rate_gue(dims, samples: int, seed: int):
    def check(out: bytes, rc: int) -> list[Op]:
        if rc != 0:
            return _failed_command("rate-gue", rc, len(dims))
        _, rows = _table(out.decode())
        ops = []
        for i, d in enumerate(dims):
            if i >= len(rows):
                ops.append(Op(f"rate-gue d={d}", False, "row missing"))
                continue
            r = rows[i]
            bad = []
            if int(r["d"]) != d or int(r["n_samples"]) != samples \
                    or int(r["seed"]) != seed or float(r["gamma"]) != GAMMA:
                bad.append("row echoes wrong inputs")
            if not _close(float(r["rate_haar"]), float(Fraction(d * d, d + 1)), EXACT_RTOL):
                bad.append(f"rate_haar {r['rate_haar']} != d^2/(d+1)")
            if not _close(float(r["rate_wick"]), float(d - 1), EXACT_RTOL):
                bad.append(f"rate_wick {r['rate_wick']} != d-1")
            mean, se = float(r["rate_mc_mean"]), float(r["rate_mc_stderr"])
            if not (se > 0 and abs(mean - (d - 1)) <= MC_Z * se):
                bad.append(f"MC mean {mean} is not within {MC_Z} stderr ({se}) of d-1")
            ops.append(Op(f"rate-gue d={d}", not bad, "; ".join(bad)))
        return ops
    return check


# ---------------------------------------------------------------- tfd


def _check_rate_columns(r: dict, beta: str, log2d: int) -> tuple[list[str], bool]:
    """Closed-form rate columns of one tfd row.  Returns (problems, semicircle_only)."""
    d = 2 ** log2d
    b = float(beta)
    bad, semi_bad = [], False
    if log2d <= EXACT_RATE_LOG2_CAP:
        want = oracle_rate_exact(beta, d)
        if not _close(float(r["rate_exact"]), want, RATE_EXACT_RTOL):
            bad.append(f"rate_exact {r['rate_exact']} vs mpmath {want!r}")
    elif r["rate_exact"] != "":
        bad.append("rate_exact should be blank above 2^14")
    want = oracle_rate_semicircle(beta, log2d)
    if not _close(float(r["rate_semicircle"]), want, RATE_SEMICIRCLE_RTOL):
        semi_bad = True
        bad.append(f"rate_semicircle {r['rate_semicircle']} vs mpmath {want!r}")
    if not _close(float(r["rate_high_t"]), 2.0 * GAMMA * d, EXACT_RTOL):
        bad.append(f"rate_high_t {r['rate_high_t']} != 2 gamma d")
    if b > 0:
        if not _close(float(r["rate_low_t"]), float(6 * Fraction(b) ** -2), EXACT_RTOL):
            bad.append(f"rate_low_t {r['rate_low_t']} != 6 gamma/beta^2")
    elif r["rate_low_t"] != "":
        bad.append("rate_low_t should be blank at beta = 0")
    return bad, semi_bad and len(bad) == 1


def check_tfd_sampled(n_qubits: int, betas, t_max: float, t_points: int):
    d = 2 ** n_qubits
    grid = [t_max * i / (t_points - 1) for i in range(t_points)]

    def check(out: bytes, rc: int) -> list[Op]:
        if rc != 0:
            return _failed_command("tfd", rc, len(betas))
        _, rows = _table(out.decode())
        ops = []
        for j, beta in enumerate(betas):
            curve = rows[j * t_points:(j + 1) * t_points]
            name = f"tfd d={d} beta={beta}"
            if len(curve) != t_points or any(float(r["beta"]) != float(beta) for r in curve):
                ops.append(Op(name, False, "curve rows missing"))
                continue
            bad = []
            gt = [float(r["gamma_t"]) for r in curve]
            if any(abs(a - b) > 1e-12 * t_max for a, b in zip(gt, grid)):
                bad.append("gamma_t grid differs from the requested one")
            p = [float(r["purity_mean"]) for r in curve]
            p_inf = float(curve[0]["purity_inf"])
            if p[0] != 1.0 or float(curve[0]["purity_stderr"]) != 0.0:
                bad.append(f"purity at gamma t = 0 is {p[0]}, not exactly 1")
            if any(b > a * (1 + PURITY_SLACK) for a, b in zip(p, p[1:])):
                bad.append("purity increases in t")
            if any(not (1 / d) * (1 - PURITY_SLACK) <= x <= 1 + PURITY_SLACK for x in p):
                bad.append("purity leaves [1/d, 1]")
            if not (1 / d) * (1 - PURITY_SLACK) <= p_inf <= 1 + PURITY_SLACK:
                bad.append(f"purity_inf {p_inf} leaves [1/d, 1]")
            if p[-1] < p_inf * (1 - PURITY_SLACK):
                bad.append("purity falls below its long-time plateau")
            if any(r[k] != curve[0][k] for r in curve for k in
                   ("purity_inf", "rate_exact", "rate_semicircle")):
                bad.append("per-curve columns vary along the curve")
            bad += _check_rate_columns(curve[0], beta, n_qubits)[0]
            ops.append(Op(name, not bad, "; ".join(bad)))
        if len(rows) != len(betas) * t_points:
            ops.append(Op("tfd row count", False, f"{len(rows)} rows"))
        return ops
    return check


def check_tfd_formula(log2d: int, betas):
    def check(out: bytes, rc: int) -> list[Op]:
        if rc != 0:
            return _failed_command(f"tfd log2d={log2d}", rc, len(betas))
        _, rows = _table(out.decode())
        ops = []
        for j, beta in enumerate(betas):
            name = f"tfd --formula-only log2d={log2d} beta={beta}"
            if j >= len(rows) or float(rows[j]["beta"]) != float(beta):
                ops.append(Op(name, False, "row missing"))
                continue
            bad, known = _check_rate_columns(rows[j], beta, log2d)
            ops.append(Op(name, not bad, "; ".join(bad), known=known))
        return ops
    return check


# ---------------------------------------------------------------- crossover


def check_crossover(k_list, n_max: int):
    n_cap = max(64, n_max)
    modes = ("approx", "exact-binomial")

    def check(out: bytes, rc: int) -> list[Op]:
        if rc != 0:
            return _failed_command("crossover", rc, len(k_list) * len(modes))
        comments, _ = _table(out.decode())
        shown = {}
        for line in comments:
            if line.startswith("# crossover_min_n "):
                key, value = line[len("# crossover_min_n "):].split(": ")
                shown[key] = value
        ops = []
        for mode in modes:
            for k in k_list:
                want = oracle_crossover_min_n(k, mode, n_cap)
                want_s = "none" if want is None else str(want)
                got = shown.get(f"k={k} mode={mode}")
                ops.append(Op(f"crossover k={k} {mode}", got == want_s,
                              f"printed {got}, integer scan gives {want_s}"))
        return ops
    return check


# ---------------------------------------------------------------- validate

VALIDATE_CHECKS = ("haar-second-moment", "haar-fourth-moment",
                   "annealing-beta-0.25", "annealing-beta-0.5",
                   "trajectory-vs-master", "hs-vs-double-sum")
# Left out of the counted items: at d = 40 and 400 samples the quenched rate
# sits 1.6% (sd 0.4%) below the annealed closed form, so the check's 2% limit
# fails on about one seed in five, and validate then exits 3.
VALIDATE_SEED_DEPENDENT = "annealing-beta-0.5"


def check_validate(out: bytes, rc: int) -> list[Op]:
    lines = out.decode().splitlines()
    status = {ln.split()[0]: ln.split()[1] for ln in lines[:-1] if len(ln.split()) > 1}
    n = len(VALIDATE_CHECKS)
    if status.get(VALIDATE_SEED_DEPENDENT) == "FAIL":
        want_rc, tail = 3, f"1 of {n} checks failed"
    else:
        want_rc, tail = 0, f"all {n} checks passed"
    ops = [Op(f"validate {name}", rc == want_rc and status.get(name) == "PASS",
              f"status {status.get(name)}, exit code {rc}")
           for name in VALIDATE_CHECKS if name != VALIDATE_SEED_DEPENDENT]
    if len(lines) != n + 1 or lines[-1] != tail or VALIDATE_SEED_DEPENDENT not in status:
        ops.append(Op("validate summary", False,
                      f"{len(lines)} lines, last {lines[-1] if lines else ''!r}"))
    return ops


# ---------------------------------------------------------------- workloads

GUE_DIMS = (2, 4, 8, 16, 32, 64)
TFD_BETAS = ("0", "0.1", "1")
TFD_T_MAX, TFD_T_POINTS = 10.0, 41
CF_LOG2 = (8, 10, 12, 14, 20, 30, 40, 50)
CF_BETAS = ("1e-9", "1e-6", "1e-3", "0.1", "1", "3")
CROSSOVER_K = (1, 2, 3, 4, 5)
CROSSOVER_N_MAX = 50

# Full sizes, and the small sizes of the smoke mode.
SIZES = {
    "full": {"gue_samples": 2000, "tfd_qubits": 8, "tfd_samples": 8,
             "cf_log2": CF_LOG2},
    "smoke": {"gue_samples": 50, "tfd_qubits": 4, "tfd_samples": 3,
              "cf_log2": (8, 50)},
}


def gue_sweep(seed: int, size: dict) -> list[Command]:
    n = size["gue_samples"]
    dims = ",".join(map(str, GUE_DIMS))
    return [Command(("rate-gue", "--dims", dims, "--samples", str(n)),
                    check_rate_gue(GUE_DIMS, n, seed))]


def tfd_ensemble(seed: int, size: dict) -> list[Command]:
    q = size["tfd_qubits"]
    argv = ("tfd", "--n-qubits", str(q), "--beta-list", ",".join(TFD_BETAS),
            "--t-max", f"{TFD_T_MAX:g}", "--t-points", str(TFD_T_POINTS),
            "--samples", str(size["tfd_samples"]))
    return [Command(argv, check_tfd_sampled(q, TFD_BETAS, TFD_T_MAX, TFD_T_POINTS))]


def checks(seed: int, size: dict) -> list[Command]:
    return [Command(("validate", "--quick"), check_validate)]


def closed_forms(seed: int, size: dict) -> list[Command]:
    cmds = [Command(("tfd", "--formula-only", "--log2-dim", str(l),
                     "--beta-list", ",".join(CF_BETAS)),
                    check_tfd_formula(l, CF_BETAS))
            for l in size["cf_log2"]]
    cmds.append(Command(("crossover", "--k-list", ",".join(map(str, CROSSOVER_K)),
                         "--n-max", str(CROSSOVER_N_MAX)),
                        check_crossover(CROSSOVER_K, CROSSOVER_N_MAX)))
    return cmds


WORKLOADS = {"gue-sweep": gue_sweep, "tfd-ensemble": tfd_ensemble,
             "checks": checks, "closed-forms": closed_forms}


def commands(workload: str, seed: int, size: str = "full") -> list[Command]:
    """The CLI commands of one pass; every one runs at ``--threads 1``."""
    cmds = WORKLOADS[workload](seed, SIZES[size])
    return [Command((*c.argv, "--seed", str(seed), "--threads", "1"), c.check)
            for c in cmds]

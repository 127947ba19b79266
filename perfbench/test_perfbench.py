"""Tests of the benchmark's own checks, layer metrics and smoke mode.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as w  # noqa: E402

TFD_HEADER = ("beta,gamma_t,purity_mean,purity_stderr,purity_inf,rate_exact,"
              "rate_semicircle,rate_high_t,rate_low_t")


def fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def formula_csv(log2d: int, beta: str, semicircle=None, exact=None) -> bytes:
    d = 2 ** log2d
    b = float(beta)
    if exact is None:
        exact = w.oracle_rate_exact(beta, d) if log2d <= 14 else ""
    if semicircle is None:
        semicircle = w.oracle_rate_semicircle(beta, log2d)
    row = [b, "", "", "", 0.5, exact, semicircle, 2.0 * d, 6.0 / b ** 2]
    return f"# dephase-lab schema v1\n{TFD_HEADER}\n{','.join(map(fmt, row))}\n".encode()


def rate_gue_csv(d: int, wick: float, mean: float, stderr: float = 0.1) -> bytes:
    row = [d, 1, d * d / (d + 1.0), wick, mean, stderr, 2000, 7]
    return ("# dephase-lab schema v1\n"
            "d,gamma,rate_haar,rate_wick,rate_mc_mean,rate_mc_stderr,n_samples,seed\n"
            + ",".join(map(fmt, row)) + "\n").encode()


def test_semicircle_check_rejects_the_cancelled_value():
    check = w.check_tfd_formula(50, ("1",))
    [bad] = check(formula_csv(50, "1", semicircle=7), 0)
    assert not bad.ok and bad.known
    [good] = check(formula_csv(50, "1"), 0)
    assert good.ok
    assert w.oracle_rate_semicircle("1", 50) == pytest.approx(6.0, rel=1e-6)


def test_rate_exact_check_accepts_mpmath_and_rejects_an_error():
    check = w.check_tfd_formula(14, ("3",))
    assert check(formula_csv(14, "3"), 0)[0].ok
    want = w.oracle_rate_exact("3", 2 ** 14)
    [bad] = check(formula_csv(14, "3", exact=want * (1 + 1e-5)), 0)
    assert not bad.ok and not bad.known


def test_rate_gue_check_rejects_d_for_d_minus_one():
    check = w.check_rate_gue((4,), 2000, 7)
    assert check(rate_gue_csv(4, wick=3.0, mean=3.02), 0)[0].ok
    assert not check(rate_gue_csv(4, wick=4.0, mean=3.02), 0)[0].ok
    # An MC mean at the other closed form, d^2/(d+1), is 20 stderr away.
    assert not check(rate_gue_csv(4, wick=3.0, mean=3.2, stderr=0.01), 0)[0].ok
    assert not check(rate_gue_csv(4, wick=3.0, mean=3.02), 2)[0].ok


def test_crossover_oracle_is_the_permanent_crossing():
    for k in (1, 3, 5):
        n = w.oracle_crossover_min_n(k, "approx", 64)

        def bound(m):
            return 2 * (2 / 3) * m ** (2 * k) / math.factorial(k) ** 2
        assert 4 ** (n - 1) / (2 ** (n - 1) + 1) <= bound(n - 1)
        assert all(4 ** m / (2 ** m + 1) > bound(m) for m in range(n, 65))
    check = w.check_crossover((1,), 50)
    good = w.oracle_crossover_min_n(1, "approx", 64)
    lines = [f"# crossover_min_n k=1 mode=approx: {good}",
             f"# crossover_min_n k=1 mode=exact-binomial: "
             f"{w.oracle_crossover_min_n(1, 'exact-binomial', 64)}"]
    assert all(op.ok for op in check(("\n".join(lines) + "\nn\n").encode(), 0))
    lines[0] = f"# crossover_min_n k=1 mode=approx: {good + 1}"
    assert not check(("\n".join(lines) + "\nn\n").encode(), 0)[0].ok


def sampled_csv(purities, purity_inf=0.3, n_qubits=2, beta="1") -> bytes:
    d = 2 ** n_qubits
    rows = []
    for i, p in enumerate(purities):
        rows.append([float(beta), 10.0 * i / (len(purities) - 1), p,
                     0.0 if i == 0 else 0.01, purity_inf,
                     w.oracle_rate_exact(beta, d), w.oracle_rate_semicircle(beta, n_qubits),
                     2.0 * d, 6.0 / float(beta) ** 2])
    body = "\n".join(",".join(map(fmt, r)) for r in rows)
    return f"# dephase-lab schema v1\n{TFD_HEADER}\n{body}\n".encode()


def test_sampled_purity_properties():
    check = w.check_tfd_sampled(2, ("1",), 10.0, 3)
    assert check(sampled_csv([1.0, 0.5, 0.4]), 0)[0].ok
    assert not check(sampled_csv([1.0, 0.4, 0.5]), 0)[0].ok      # increases
    assert not check(sampled_csv([1.0, 0.5, 0.2]), 0)[0].ok      # below 1/d
    assert not check(sampled_csv([0.99, 0.5, 0.4]), 0)[0].ok     # not pure at 0
    assert not check(sampled_csv([1.0, 0.5, 0.4], purity_inf=0.2), 0)[0].ok


def validate_out(fail=(), n=6) -> bytes:
    lines = [f"{name}  {'FAIL' if name in fail else 'PASS'}  detail"
             for name in w.VALIDATE_CHECKS[:n]]
    tail = f"{len(fail)} of {n} checks failed" if fail else f"all {n} checks passed"
    return "\n".join(lines + [tail]).encode()


def test_validate_check():
    ops = w.check_validate(validate_out(), 0)
    assert len(ops) == 5 and all(op.ok for op in ops)
    assert not all(op.ok for op in w.check_validate(validate_out(), 3))
    assert not all(op.ok for op in w.check_validate(validate_out(["haar-second-moment"]), 3))
    assert not all(op.ok for op in w.check_validate(validate_out(n=5), 0))
    # The seed-dependent annealing check may fail alone, with exit code 3.
    flaky = [w.VALIDATE_SEED_DEPENDENT]
    assert all(op.ok for op in w.check_validate(validate_out(flaky), 3))
    assert not all(op.ok for op in w.check_validate(validate_out(flaky), 0))
    both = flaky + ["hs-vs-double-sum"]
    assert not all(op.ok for op in w.check_validate(validate_out(both), 3))


def test_layer_metrics_self_times():
    spans = [["rates.rate_gue_mc", 0.0, 1.0, -1, 100],
             ["pool.gather_samples", 0.1, 0.9, 0, None],
             ["pool.run_chunked", 0.1, 0.8, 1, None],
             ["rates.rate_gue_chunk", 0.1, 0.8, 2, None],
             ["ensembles.substream", 0.2, 0.3, 3, None],
             ["ensembles.gue_draw", 0.3, 0.5, 3, 64]]
    m = tracer.layer_metrics([spans])
    assert m["rates.rate_gue_mc_self_s"] == pytest.approx(0.2 + 0.4)
    assert m["pool.gather_self_ms"] == pytest.approx(100.0)
    assert m["ensembles.gue_draw_us.d64"] == pytest.approx(2e5)
    assert m["ensembles.substream_calls"] == 1
    assert m["rates.samples_per_s"] == pytest.approx(100.0)


def test_every_listed_metric_is_derived():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    probe_names = {"setup.numpy_import_ms", "setup.package_import_ms",
                   "setup.pool_import_ms", "pool.startup_ms", "pool.speedup_t2",
                   "process.cpu_s", "process.cpu_per_wall", "trace.untraced_wall_s",
                   "trace.traced_wall_s", "trace.overhead_pct"}
    derived = set(tracer.layer_metrics([[]]))
    assert {m["name"] for m in spec["per_layer"]} == derived | probe_names
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)


def test_smoke_mode_runs_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert all(name in proc.stdout for name in w.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "checks",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

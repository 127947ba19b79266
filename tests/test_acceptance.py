"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import math
import os
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from _oracles import gue_pair_tail, to_product_basis
import dephase_lab
from dephase_lab.dynamics import (annealing_check, build_tfd,
                                  ensemble_purity_tfd, evolve_tfd,
                                  master_equation_rk4, purity_inf_tfd,
                                  purity_tfd, purity_tfd_hs)
from dephase_lab.ensembles import RngStream, _gue_matrix
from dephase_lab.hermitian import purity, spectral_norm
from dephase_lab.rates import (LindbladChannel, PAULI,
                               build_kbody_operator, decoherence_rate,
                               rate_gue_mc, rate_lmg, tbre_rate_and_bound)
from dephase_lab.specfun import (KBodySpec, beta_crossover, calibrate_epsilon,
                                 crossover_min_n, rate_gue_haar, rate_gue_wick,
                                 rate_kbody_bound, rate_tfd_gue_exact,
                                 rate_tfd_gue_semicircle)
from dephase_lab.trajectories import (TrajectoryConfig, average_trajectories,
                                      tfd_two_noise_config)
from dephase_lab.validate import _check_annealing, _check_haar_moments

SEED = 20250117


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def rand_herm(d, gen):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def test_01_gue_rate_adjudication():
    t0 = time.time()
    gamma, n_samples = 1.0, 20_000
    dims = (2, 4, 8, 16, 32, 64)
    psi_rates = []
    for j, d in enumerate(dims):
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
        est = rate_gue_mc(psi, gamma, d, n_samples, RngStream(SEED, j))
        within_haar = abs(est.mean - rate_gue_haar(d, gamma)) <= 3 * est.stderr
        within_wick = abs(est.mean - rate_gue_wick(d, gamma)) <= 3 * est.stderr
        psi_rates.append((d, est, within_haar, within_wick))
    wick_all = all(w for _, _, _, w in psi_rates)
    haar_all = all(h for _, _, h, _ in psi_rates)
    elapsed = time.time() - t0
    lines = "; ".join(
        f"d={d}: mc={e.mean:.4f}+-{e.stderr:.4f} haar={'in' if h else 'OUT'} "
        f"wick={'in' if w else 'OUT'}" for d, e, h, w in psi_rates)
    winner = "Gamma(d-1)" if (wick_all and not haar_all) else (
        "Gamma d^2/(d+1)" if (haar_all and not wick_all) else "ambiguous")
    report(1, wick_all != haar_all and elapsed < 300.0,
           f"winner across the sweep: {winner}; {lines} ({elapsed:.0f}s)")


def test_02_state_independence():
    d, gamma, n = 16, 1.0, 20_000
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    cat = np.zeros(d, dtype=complex)
    cat[0] = cat[-1] = 1.0 / math.sqrt(2.0)
    a = rate_gue_mc(e1, gamma, d, n, RngStream(SEED, 10))
    b = rate_gue_mc(cat, gamma, d, n, RngStream(SEED, 11))
    combined = math.hypot(a.stderr, b.stderr)
    ok = abs(a.mean - b.mean) <= 3 * combined
    report(2, ok, f"|{a.mean:.4f} - {b.mean:.4f}| = "
                  f"{abs(a.mean - b.mean):.4f} <= 3*{combined:.4f}")


def test_03_maximally_mixed_fixed_point():
    gen = RngStream(SEED, 20).sample_generator()
    worst = 0.0
    for _ in range(100):
        d = int(gen.integers(2, 17))
        channels = [LindbladChannel(float(gen.random() + 0.05), rand_herm(d, gen))
                    for _ in range(int(gen.integers(1, 4)))]
        worst = max(worst, abs(decoherence_rate(np.eye(d) / d,
                                                channels)))
    report(3, worst <= 1e-12, f"max |rate| over 100 channel sets = {worst:.2e}")


def test_04_crossover_reproduction():
    t0 = time.time()
    eps_sq = calibrate_epsilon(1, 1, 1.0)
    ok = abs(eps_sq - 2.0 / 3.0) <= 1e-12
    values = {}
    for mode in ("approx", "exact-binomial"):
        values[mode] = [crossover_min_n(k, eps_sq, mode) for k in range(1, 6)]
        seq = values[mode]
        ok = ok and all(v is not None for v in seq)
        ok = ok and all(x <= y for x, y in zip(seq, seq[1:]))
        ok = ok and seq[1] >= 10          # k = 2 crossover
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(4, ok, f"eps^2 = {eps_sq:.12f}; n_min(k=1..5) approx={values['approx']} "
                  f"exact-binomial={values['exact-binomial']} ({elapsed:.2f}s)")


def test_05_kbody_exact_rate():
    gamma = 1.0
    worst = 0.0
    ok = True
    for n in range(1, 6):
        plus = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
        for k in range(1, n + 1):
            spec = KBodySpec(n, k, 0.9)
            rate = decoherence_rate(plus, [
                LindbladChannel(gamma, build_kbody_operator(spec))])
            expect = 2 * gamma * spec.epsilon ** 2 * math.comb(n, k)
            worst = max(worst, abs(rate - expect))
            ok = ok and abs(rate - expect) <= 1e-10
            ok = ok and rate <= rate_kbody_bound(spec, gamma, "exact-binomial") + 1e-12
            ok = ok and rate <= rate_kbody_bound(spec, gamma, "approx") + 1e-12
    report(5, ok, f"max |rate - 2 gamma eps^2 C(n,k)| = {worst:.2e}; bounds hold")


def test_06_tfd_exact_solution_equivalence():
    d, beta, gamma = 4, 0.5, 1.0
    energies = np.linalg.eigvalsh(_gue_matrix(d, RngStream(SEED, 30).sample_generator()))
    h0, channels, psi0 = tfd_two_noise_config(energies, beta, gamma)
    sys = build_tfd(energies, beta, gamma)
    dt, steps, every = 2.5e-4, 8000, 1000
    traj = master_equation_rk4(h0, channels, psi0, dt, steps, store_every=every)
    worst = 0.0
    for snap, s in zip(traj, range(0, steps + 1, every)):
        exact = to_product_basis(evolve_tfd(sys, s * dt))
        worst = max(worst, float(np.abs(snap - exact).max()))
    report(6, worst <= 1e-6,
           f"max |rk4 - closed form| = {worst:.2e} over gamma t in [0, 2]")


def test_07_purity_identities():
    energies = np.linalg.eigvalsh(_gue_matrix(8, RngStream(15, 50).sample_generator()))
    ok = True
    details = []
    for beta in (0.0, 0.7):
        sys = build_tfd(energies, beta)
        ok = ok and purity_tfd(sys, 0.0) == 1.0
        grid = np.linspace(0.0, 6.0, 121)
        p = purity_tfd(sys, grid)
        ok = ok and bool((np.diff(p) <= 1e-12).all())
        z = np.exp(-beta * energies).sum()
        z2 = np.exp(-2 * beta * energies).sum()
        plateau_err = abs(purity_tfd(sys, 1e3) - z2 / z ** 2)
        ok = ok and plateau_err <= 1e-6
        details.append(f"beta={beta}: plateau err {plateau_err:.1e}")
    sys0 = build_tfd(energies, 0.0)
    ok = ok and abs(purity_tfd(sys0, 1e3) - 1.0 / 8.0) <= 1e-6
    worst_hs = 0.0
    for beta in (0.0, 0.3, 0.7, 1.5, 3.0):
        sys = build_tfd(energies, beta)
        for gt in (0.05, 0.2, 0.5, 1.0, 2.0):
            worst_hs = max(worst_hs, abs(purity_tfd_hs(sys, gt)
                                         - purity_tfd(sys, gt)))
    ok = ok and worst_hs <= 1e-8
    report(7, ok, "; ".join(details) + f"; max HS gap on 5x5 grid = {worst_hs:.1e}")


def test_08_tfd_ensemble_reproduction():
    t0 = time.time()
    n_qubits, gamma, n_samples = 5, 1.0, 1000
    d = 2 ** n_qubits
    grid = np.concatenate([np.linspace(0.0, 10.0, 21), [1000.0]])
    betas = (0.0, 0.1, 1.0)
    curves = dict(zip(betas, ensemble_purity_tfd(n_qubits, betas, gamma, grid,
                                                 n_samples, RngStream(SEED, 40))))
    ordered = True
    for i in (4, 10, 20):       # gamma t = 2, 5, 10
        ordered = ordered and (curves[0.0].purity.mean[i]
                               < curves[0.1].purity.mean[i]
                               < curves[1.0].purity.mean[i])
    c0 = curves[0.0]
    plateau_exact = c0.purity_inf.mean == pytest.approx(1.0 / d, rel=1e-12) \
        and c0.purity_inf.stderr == 0.0
    tail = gue_pair_tail(d, 1000.0)
    dev = abs(c0.purity.mean[-1] - (1.0 / d + tail))
    plateau_curve = dev <= 3 * c0.purity.stderr[-1]
    elapsed = time.time() - t0
    ok = ordered and plateau_exact and plateau_curve and elapsed <= 600.0
    report(8, ok,
           f"curves ordered in beta: {ordered}; plateau 1/32 exact: "
           f"{plateau_exact}; far point vs 1/32+tail: dev={dev:.1e} <= "
           f"3se={3 * c0.purity.stderr[-1]:.1e} ({elapsed:.0f}s)")


def test_09_semicircle_asymptotics():
    ok = True
    details = []
    for log2d in (10, 50):
        d = 2.0 ** log2d
        bc = beta_crossover(d)
        high = rate_tfd_gue_semicircle(bc / 100.0, d, 1.0)
        low = rate_tfd_gue_semicircle(100.0 * bc, d, 1.0)
        e_high = abs(high / (2.0 * d) - 1.0)
        e_low = abs(low * (100.0 * bc) ** 2 / 6.0 - 1.0)
        ok = ok and e_high <= 1e-3 and e_low <= 1e-2
        details.append(f"log2d={log2d}: highT dev {e_high:.1e}, lowT dev {e_low:.1e}")
    report(9, ok, "; ".join(details))


def test_10_exact_vs_semicircle_rates():
    dims = (4, 8, 16, 32, 64, 128, 256)
    worst_small_beta = 0.0
    for d in dims:
        re_ = rate_tfd_gue_exact(0.01, d, 1.0)
        rs = rate_tfd_gue_semicircle(0.01, float(d), 1.0)
        worst_small_beta = max(worst_small_beta, abs(re_ - rs) / re_)
    gaps = []
    for d in dims:
        re_ = rate_tfd_gue_exact(1.0, d, 1.0)
        rs = rate_tfd_gue_semicircle(1.0, float(d), 1.0)
        gaps.append(abs(re_ - rs) / re_)
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = worst_small_beta <= 0.01 and monotone
    report(10, ok, f"beta=0.01 worst rel gap {worst_small_beta:.2e}; beta=1 "
                   f"gaps {['%.3f' % g for g in gaps]} monotone: {monotone}")


def test_11_annealing_jensen():
    d, n_samples = 40, 2000
    # The validate check at beta = 0.25 and 0.5: Jensen bound, and the
    # annealed closed form against the annealed rate of the same draws.
    results = _check_annealing(SEED, d, n_samples)
    ok = all(r.passed for r in results)
    details = [f"{r.name}: {r.detail}" for r in results]
    # Jensen direction across random dimensions and temperatures.
    gen = RngStream(SEED, 59).sample_generator()
    for trial in range(100):
        d_r = int(gen.integers(2, 12))
        beta_r = float(gen.random() * 2.0)
        chk = annealing_check([beta_r], d_r, 80, RngStream(SEED, 60 + trial))[0]
        # Exact on the same draws (AM-GM), so the slack is rounding-sized.
        ok = ok and chk.mean_ln_z <= chk.ln_mean_z + 1e-12 * max(1.0, abs(chk.ln_mean_z))
    # The annealed average degrades at low temperature for small d; report
    # the measured beta = 1 gap without gating on it.
    chk1 = annealing_check([1.0], d, n_samples, RngStream(SEED, 58))[0]
    gap1 = abs(chk1.rate_quenched.mean - chk1.rate_annealed) / chk1.rate_annealed
    report(11, ok, "; ".join(details)
           + f"; Jensen held in every run; beta=1 gap (reported): {gap1:.1%}")


def test_12_haar_moment_identities():
    t0 = time.time()
    n_samples = 100_000
    results = _check_haar_moments(SEED, n_samples)
    elapsed = time.time() - t0
    report(12, all(r.passed for r in results),
           "; ".join(f"{r.name}: {r.detail}" for r in results)
           + f" ({n_samples} samples, {elapsed:.0f}s)")


def test_13_trajectory_master_equivalence():
    t0 = time.time()
    gamma, n_traj = 1.0, 4000
    cfg = TrajectoryConfig(dt=0.01, steps=200, n_trajectories=n_traj)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    avg = average_trajectories(None, [LindbladChannel(gamma, PAULI["z"])],
                               plus, cfg, RngStream(SEED))
    target = 0.5 * np.exp(-2.0 * gamma * avg.times)
    dev_dephasing = float(np.abs(np.abs(avg.mean[:, 0, 1]) - target).max())
    ok_a = dev_dephasing <= 3.0 / math.sqrt(n_traj)

    energies = np.linalg.eigvalsh(_gue_matrix(4, RngStream(SEED, 80).sample_generator()))
    h0, channels, psi0 = tfd_two_noise_config(energies, 0.0, gamma)
    stiff = sum(c.gamma * spectral_norm(c.v) ** 2 for c in channels)
    n2 = 1500
    cfg2 = TrajectoryConfig(dt=0.01 / stiff, steps=600, n_trajectories=n2)
    avg2 = average_trajectories(h0, channels, psi0, cfg2, RngStream(SEED + 1))
    sys = build_tfd(energies, 0.0, gamma)
    dev_tfd = 0.0
    for i in (0, 200, 400, 600):
        dev_tfd = max(dev_tfd, abs(avg2.purity_unbiased()[i]
                                   - purity_tfd(sys, avg2.times[i])))
    ok_b = dev_tfd <= 4.0 / math.sqrt(n2)
    elapsed = time.time() - t0
    report(13, ok_a and ok_b and elapsed <= 120.0,
           f"dephasing off-diagonal dev {dev_dephasing:.2e} <= "
           f"{3.0 / math.sqrt(n_traj):.2e}; two-noise purity dev {dev_tfd:.2e} "
           f"<= {4.0 / math.sqrt(n2):.2e} ({elapsed:.0f}s)")


def test_14_short_time_slope():
    gen = RngStream(SEED, 90).sample_generator()
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 9))
        h0 = rand_herm(d, gen)
        channels = [LindbladChannel(float(gen.random() + 0.2), rand_herm(d, gen))
                    for _ in range(int(gen.integers(1, 3)))]
        if gen.random() < 0.5:
            v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
            state = v / np.linalg.norm(v)
        else:
            a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            rho = a @ a.conj().T
            state = rho / np.trace(rho).real
        rate = decoherence_rate(state, channels)
        delta = 1e-3 / rate
        traj = master_equation_rk4(h0, channels, state, dt=delta / 4.0, steps=4)
        p0 = purity(state)
        slope = (p0 - purity(traj[-1])) / (p0 * delta)
        worst = max(worst, abs(slope - rate) / rate)
    report(14, worst <= 0.05,
           f"max relative slope mismatch over 20 configurations = {worst:.3f}")


def test_15_lmg_and_tbre():
    gamma = 1.0
    ok = True
    worst_lmg = 0.0
    for n in range(2, 13):
        val = rate_lmg(n, 1.0, 0.0, gamma)
        expect = 2.0 * gamma * n * (n - 1)
        worst_lmg = max(worst_lmg, abs(val - expect) / expect)
        ok = ok and abs(val - expect) <= 1e-10 * expect
        # Brute-force enumeration over all 2^n configurations.
        b = np.arange(1 << n, dtype=np.uint32)
        mag = np.zeros(1 << n)
        for l in range(n):
            mag += 1.0 - 2.0 * ((b >> l) & 1)
        e = (mag ** 2 - n) / 2.0
        var = float((e ** 2).mean() - e.mean() ** 2)
        ok = ok and abs(val - 4.0 * gamma * var) <= 1e-10 * max(1.0, val)
    gen = RngStream(SEED, 91).sample_generator()
    worst_margin = -np.inf
    for _ in range(100):
        n = int(gen.integers(2, 7))
        v = gen.standard_normal(1 << n) + 1j * gen.standard_normal(1 << n)
        state = v / np.linalg.norm(v)
        rate, bound = tbre_rate_and_bound(n, state, gamma)
        worst_margin = max(worst_margin, rate - bound)
        ok = ok and rate <= bound + 1e-9
    report(15, ok, f"max LMG relative dev {worst_lmg:.2e}; max TBRE rate-bound "
                   f"margin {worst_margin:.2e} (never positive)")


def test_16_cli_determinism(tmp_path):
    base = [sys.executable, "-m", "dephase_lab", "rate-gue", "--dims", "2,4,8",
            "--samples", "500", "--seed", "123"]
    # The children import the package from where this process found it,
    # with or without PYTHONPATH set.
    src = os.path.dirname(os.path.dirname(dephase_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    files = []
    for run, threads in enumerate(("1", "8", "1", "8")):
        out = tmp_path / f"run{run}.csv"
        proc = subprocess.run(base + ["--threads", threads, "-o", str(out)],
                              env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        files.append(out.read_bytes())
    ok = all(f == files[0] for f in files)
    report(16, ok, f"4 runs across thread counts byte-identical: {ok} "
                   f"({len(files[0])} bytes)")

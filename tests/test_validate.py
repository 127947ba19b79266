from dataclasses import replace

import pytest

from dephase_lab import _pool, validate
from dephase_lab.ensembles import RngStream

ANNEALING_SEEDS = range(1, 21)      # includes 8, where the former check failed


def _checks_of(seeds, check):
    return [r for seed in seeds for r in check(seed, 40, 400)]


def test_streams_drawn_by_one_run_are_disjoint(monkeypatch):
    # Every draw is recorded as (check, key, substreams): engine calls with
    # their whole index range, direct generators with their one substream.
    draws = []
    current = []
    real_gather = _pool.gather_samples
    real_bit_generator = RngStream.bit_generator

    def gather(sample_fn, n, rng, *args, **kwargs):
        draws.append((current[-1], "engine",
                      {(rng.master_seed, rng.stream_index, i) for i in range(n)}))
        return real_gather(sample_fn, n, rng, *args, **kwargs)

    def bit_generator(self, index=0):
        draws.append((current[-1], "direct",
                      {(self.master_seed, self.stream_index, index)}))
        return real_bit_generator(self, index)

    def named(name, check):
        def run(*args, **kwargs):
            current.append(name)
            try:
                return check(*args, **kwargs)
            finally:
                current.pop()
        return run

    monkeypatch.setattr(_pool, "gather_samples", gather)
    monkeypatch.setattr(RngStream, "bit_generator", bit_generator)
    for name in ("_check_haar_moments", "_check_annealing",
                 "_check_trajectory_vs_master", "_check_hs_quadrature"):
        monkeypatch.setattr(validate, name, named(name, getattr(validate, name)))
    results = validate.run_validation(8, quick=True)
    assert all(r.passed for r in results), [r.detail for r in results
                                            if not r.passed]

    used = {}
    for name, _, streams in draws:
        used.setdefault(name, set()).update(streams)
    assert len(used) == 4
    names = sorted(used)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not used[a] & used[b], f"{a} and {b} share a stream"
    # Within a check, only the two annealing betas read the same draws, on
    # purpose: common random numbers make their results comparable.
    annealing = [s for name, kind, s in draws
                 if name == "_check_annealing" and kind == "engine"]
    assert len(annealing) == 2 and annealing[0] == annealing[1]
    assert all(len(s) == 400 for s in annealing)


def test_annealing_check_passes_on_correct_code_and_fails_a_planted_bias(
        monkeypatch):
    # The annealed closed form is held to the annealed rate estimated from
    # the same draws.  Correct code passes on every seed; the closed form
    # scaled by 1.05 fails on every seed, judged on the same draws.
    real = validate.annealing_check
    seen = []

    def recording(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(validate, "annealing_check", recording)
    results = _checks_of(ANNEALING_SEEDS, validate._check_annealing)
    assert all(r.passed for r in results), [r.detail for r in results
                                            if not r.passed]

    planted = iter([replace(c, rate_annealed=1.05 * c.rate_annealed)
                    for c in seen])
    monkeypatch.setattr(validate, "annealing_check",
                        lambda *args, **kwargs: next(planted))
    results = _checks_of(ANNEALING_SEEDS, validate._check_annealing)
    assert not any(r.passed for r in results)

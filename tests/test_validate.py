from dataclasses import replace

import pytest

from dephase_lab import _pool, dynamics, trajectories, validate
from dephase_lab.ensembles import RngStream

ANNEALING_SEEDS = range(1, 21)      # includes 8, where the former check failed
TRAJECTORY_SEEDS = range(1, 21)


def _checks_of(seeds, check):
    return [r for seed in seeds for r in check(seed, 40, 400)]


def test_streams_drawn_by_one_run_are_disjoint(monkeypatch):
    # Every draw is recorded as (check, kind, substreams): engine calls with
    # the substream of every block they draw, each generator with its one
    # substream.  ``sample_generator`` is the one accessor of a substream, so
    # patching it sees the direct draws as well as the engine's blocks.
    draws = []
    current = []
    real_gather = _pool.gather_samples
    real_sample_generator = RngStream.sample_generator

    def gather(block_fn, n, rng, *args):
        blocks = range(-(-n // _pool._BLOCK))
        draws.append((current[-1], "engine",
                      {(rng.master_seed, rng.stream_index, b) for b in blocks}))
        return real_gather(block_fn, n, rng, *args)

    def sample_generator(self, index=0):
        draws.append((current[-1], "direct",
                      {(self.master_seed, self.stream_index, index)}))
        return real_sample_generator(self, index)

    def named(name, check):
        def run(*args, **kwargs):
            current.append(name)
            try:
                return check(*args, **kwargs)
            finally:
                current.pop()
        return run

    monkeypatch.setattr(_pool, "gather_samples", gather)
    monkeypatch.setattr(RngStream, "sample_generator", sample_generator)
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
    # The two annealing betas read one set of draws, on purpose: common
    # random numbers make their results comparable.  Its 400 samples are
    # two blocks.
    annealing = [s for name, kind, s in draws
                 if name == "_check_annealing" and kind == "engine"]
    assert annealing == [{(8, validate._STREAMS["annealing"], b) for b in (0, 1)}]
    # The Haar check's operators and the HS check's spectrum are drawn
    # directly, each from substream 0 of its own stream.
    direct = {s for _, kind, streams in draws if kind == "direct" for s in streams}
    assert {(8, validate._STREAMS[key], 0) for key in ("haar-operators", "hs")} <= direct


def test_annealing_check_passes_on_correct_code_and_fails_a_planted_bias(
        monkeypatch):
    # The annealed closed form is held to the annealed rate estimated from
    # the same draws.  Correct code passes on every seed; the closed form
    # scaled by 1.05 fails on every seed, judged on the same draws, and so
    # do <ln Z> and ln <Z> swapped, which the Jensen bound must catch.
    real = validate.annealing_check
    seen = []

    def recording(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(validate, "annealing_check", recording)
    results = _checks_of(ANNEALING_SEEDS, validate._check_annealing)
    assert all(r.passed for r in results), [r.detail for r in results
                                            if not r.passed]

    for plant in (lambda c: replace(c, rate_annealed=1.05 * c.rate_annealed),
                  lambda c: replace(c, mean_ln_z=c.ln_mean_z,
                                    ln_mean_z=c.mean_ln_z)):
        planted = iter([[plant(c) for c in cs] for cs in seen])
        monkeypatch.setattr(validate, "annealing_check",
                            lambda *args, **kwargs: next(planted))
        results = _checks_of(ANNEALING_SEEDS, validate._check_annealing)
        assert not any(r.passed for r in results)


def test_trajectory_check_passes_on_correct_code_and_fails_a_halved_ito_term(
        monkeypatch):
    # The check runs unrenormalized, so halving the Ito term -gamma V^2 dt / 2
    # makes the norm grow like exp(gamma t / 2) and the diagonal leave 1/2.
    results = [r for seed in TRAJECTORY_SEEDS
               for r in validate._check_trajectory_vs_master(seed, 2000)]
    assert all(r.passed for r in results), [r.detail for r in results
                                            if not r.passed]

    real_apply = trajectories.apply_operator
    last = [None]

    def halved_ito(op, vecs):
        out = real_apply(op, vecs)
        if vecs is last[0]:             # V applied to V psi: the Ito term
            out = 0.5 * out
        last[0] = out
        return out

    monkeypatch.setattr(trajectories, "apply_operator", halved_ito)
    results = [r for seed in TRAJECTORY_SEEDS
               for r in validate._check_trajectory_vs_master(seed, 2000)]
    assert not any(r.passed for r in results)


# Seed 8 runs in test_streams_drawn_by_one_run_are_disjoint.
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_quick_validation_passes(seed):
    results = validate.run_validation(seed, quick=True)
    assert len(results) == 6
    assert all(r.passed for r in results), [r.detail for r in results
                                            if not r.passed]


def test_hs_check_solves_one_quadrature_rule_per_node_count(monkeypatch):
    # The node count depends on t alone, so the 5 x 5 (beta, t) grid needs
    # five Gauss-Hermite rules, built once each, not 25.
    sizes = []
    real_solve = dynamics._tridiagonal_eigvalsh

    def solve(diag, off):
        sizes.append(len(diag))
        return real_solve(diag, off)

    dynamics.gauss_hermite.cache_clear()
    monkeypatch.setattr(dynamics, "_tridiagonal_eigvalsh", solve)
    assert validate._check_hs_quadrature(1)[0].passed
    monkeypatch.undo()
    info = dynamics.gauss_hermite.cache_info()
    assert info.misses == 5 and info.hits == 20
    assert len(sizes) == 5 and len(set(sizes)) == 5

    for n in sizes:
        nodes, weights = dynamics.gauss_hermite(n)
        fresh_nodes, fresh_weights = dynamics.gauss_hermite.__wrapped__(n)
        assert nodes.tobytes() == fresh_nodes.tobytes()
        assert weights.tobytes() == fresh_weights.tobytes()
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

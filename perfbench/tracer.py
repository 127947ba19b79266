"""Span tracing of one dephase-lab CLI command, and the layer metrics.

Run as a script, this file stands in for ``python -m dephase_lab``: it
imports the package, wraps the functions at each layer boundary, runs
``dephase_lab.cli.main`` on the remaining arguments and writes the spans
to a JSON file at exit::

    python3 perfbench/tracer.py SPANS.json rate-gue --dims 2,4 --threads 1

Wrapping happens at runtime from this file; the package is not edited.  A
function imported by name into other modules is replaced in every
``dephase_lab`` module that holds it.  Stages without a public entry point
are wrapped at their private helper (``_gue_matrix``, ``_haar_unitary``,
the chunk workers) or at the numpy/LAPACK call they make
(``numpy.linalg.eigvalsh``/``eigh``).  Chunk workers are called in-process
only at ``--threads 1``, the only setting traced.

``python3 perfbench/tracer.py --pool-startup`` prints the median time of
starting a two-worker pool through ``dephase_lab._pool.run_chunked``.

:func:`layer_metrics` turns the spans of several traced commands into the
per-layer metrics; it runs in the benchmark process.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute, attribute extractor or None).  The
# extractor records one number per call: a dimension, a row or sample count.
WRAPS = {
    "cli.main": ("dephase_lab.cli", "main", None),
    "cli.emit": ("dephase_lab.cli", "_emit", lambda a, kw: len(a[3])),
    "rates.rate_gue_mc": ("dephase_lab.rates", "rate_gue_mc", lambda a, kw: a[3]),
    "rates.rate_gue_chunk": ("dephase_lab.rates", "_rate_gue_chunk", None),
    "pool.gather_samples": ("dephase_lab._pool", "gather_samples", None),
    "pool.run_chunked": ("dephase_lab._pool", "run_chunked", None),
    "ensembles.gue_draw": ("dephase_lab.ensembles", "_gue_matrix", lambda a, kw: a[0]),
    "ensembles.haar_draw": ("dephase_lab.ensembles", "_haar_unitary", lambda a, kw: a[0]),
    "dynamics.tfd_purity_chunk": ("dephase_lab.dynamics", "_tfd_purity_chunk", None),
    "dynamics.build_tfd": ("dephase_lab.dynamics", "build_tfd", None),
    "dynamics.purity_tfd": ("dephase_lab.dynamics", "purity_tfd",
                            lambda a, kw: len(a[1]) if hasattr(a[1], "__len__") else 1),
    "dynamics.annealing_check": ("dephase_lab.dynamics", "annealing_check", None),
    "specfun.laguerre_chain": ("dephase_lab.specfun", "_laguerre_ratio_chain", None),
    "specfun.log_laguerre": ("dephase_lab.specfun", "log_laguerre_l", None),
    "specfun.bessel_ratio": ("dephase_lab.specfun", "bessel_i_ratio_g", None),
    "specfun.log_bessel_i1": ("dephase_lab.specfun", "log_bessel_i1", None),
    "specfun.rate_exact": ("dephase_lab.specfun", "rate_tfd_gue_exact", None),
    "specfun.rate_semicircle": ("dephase_lab.specfun", "rate_tfd_gue_semicircle", None),
    "specfun.z_exact": ("dephase_lab.specfun", "z_gue_exact", None),
    "specfun.z_semicircle": ("dephase_lab.specfun", "z_gue_semicircle", None),
    "trajectories.average": ("dephase_lab.trajectories", "average_trajectories",
                             lambda a, kw: a[3].n_trajectories * a[3].steps),
    "trajectories.batch": ("dephase_lab.trajectories", "_batch_worker", None),
    "validate.haar": ("dephase_lab.validate", "_check_haar_moments", None),
    "validate.annealing": ("dephase_lab.validate", "_check_annealing", None),
    "validate.trajectory": ("dephase_lab.validate", "_check_trajectory_vs_master", None),
    "validate.hs": ("dephase_lab.validate", "_check_hs_quadrature", None),
    "hermitian.eigvalsh": ("numpy.linalg", "eigvalsh", lambda a, kw: a[0].shape[-1]),
    "hermitian.eigh": ("numpy.linalg", "eigh", lambda a, kw: a[0].shape[-1]),
}

# Dimensions reported one by one: the gue-sweep dims, the validate draws
# (d = 8 quadrature, d = 40 annealing) and the tfd-ensemble d = 256.
GUE_DRAW_DIMS = (2, 4, 8, 16, 32, 40, 64, 256)
EIGENSOLVE_DIMS = (40, 256)


class Tracer:
    """Spans ``[name, start, end, parent, value]`` kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          extract(args, kwargs) if extract else None])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][1] = start
                stack.pop()
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry of WRAPS wherever a dephase_lab module holds it."""
        import importlib
        import dephase_lab.cli  # noqa: F401  (imports every module)
        from dephase_lab.ensembles import RngStream

        holders = [m for n, m in sys.modules.items()
                   if n == "dephase_lab" or n.startswith("dephase_lab.")]
        for name, (mod_name, attr, extract) in WRAPS.items():
            owner = importlib.import_module(mod_name)
            original = getattr(owner, attr)
            traced = self.wrap(name, original, extract)
            setattr(owner, attr, traced)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        RngStream.sample_generator = self.wrap(
            "ensembles.substream", RngStream.sample_generator, None)


def _trace_main(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from dephase_lab import cli
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


def _pool_startup_ms() -> float:
    import math
    from dephase_lab import _pool
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _pool.run_chunked(math.sqrt, [1.0, 4.0], 2)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------------- metrics


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics from the spans of several traced commands.

    Durations are in seconds inside the spans; every metric here is a sum, a
    per-call mean or a count over all the commands given.
    """
    dur = defaultdict(float)        # name -> total duration
    own = defaultdict(float)        # name -> total self time
    calls = defaultdict(int)
    per_value = defaultdict(list)   # (name, value) -> durations
    value_sum = defaultdict(float)  # name -> sum of recorded values
    for spans in span_lists:
        for s, self_t in zip(spans, _self_times(spans)):
            name, d = s[0], s[2] - s[1]
            dur[name] += d
            own[name] += self_t
            calls[name] += 1
            if s[4] is not None:
                per_value[(name, s[4])].append(d)
                value_sum[name] += s[4]

    def mean(name, value=None, scale=1.0):
        if value is None:
            return scale * dur[name] / calls[name] if calls[name] else 0.0
        ds = per_value[(name, value)]
        return scale * sum(ds) / len(ds) if ds else 0.0

    def rate(name):
        return value_sum[name] / dur[name] if dur[name] else 0.0

    eig = ("hermitian.eigvalsh", "hermitian.eigh")
    grid = [d for (n, v), ds in per_value.items() if n == "dynamics.purity_tfd" and v > 1
            for d in ds]
    m = {
        "ensembles.substream_us": mean("ensembles.substream", scale=1e6),
        "ensembles.substream_calls": calls["ensembles.substream"],
        "ensembles.haar_draw_us": mean("ensembles.haar_draw", scale=1e6),
        "ensembles.draw_calls": calls["ensembles.gue_draw"] + calls["ensembles.haar_draw"],
        "rates.rate_gue_mc_self_s": own["rates.rate_gue_mc"] + own["rates.rate_gue_chunk"],
        "rates.samples_per_s": rate("rates.rate_gue_mc"),
        "hermitian.eigensolve_calls": sum(calls[n] for n in eig),
        "dynamics.purity_grid_ms": 1e3 * sum(grid) / len(grid) if grid else 0.0,
        "dynamics.build_tfd_us": mean("dynamics.build_tfd", scale=1e6),
        "dynamics.annealing_self_s": own["dynamics.annealing_check"],
        "specfun.laguerre_chain_ms": mean("specfun.laguerre_chain", scale=1e3),
        "specfun.log_laguerre_ms": mean("specfun.log_laguerre", scale=1e3),
        "specfun.bessel_ratio_us": mean("specfun.bessel_ratio", scale=1e6),
        "specfun.calls": sum(c for n, c in calls.items() if n.startswith("specfun.")),
        "trajectories.average_s": dur["trajectories.average"],
        "trajectories.steps_per_s": rate("trajectories.average"),
        "validate.haar_s": dur["validate.haar"],
        "validate.annealing_s": dur["validate.annealing"],
        "validate.trajectory_s": dur["validate.trajectory"],
        "validate.hs_s": dur["validate.hs"],
        "cli.emit_ms": 1e3 * dur["cli.emit"],
        "cli.rows": int(value_sum["cli.emit"]),
        "pool.gather_self_ms": 1e3 * (own["pool.gather_samples"] + own["pool.run_chunked"]),
    }
    for d in GUE_DRAW_DIMS:
        m[f"ensembles.gue_draw_us.d{d}"] = mean("ensembles.gue_draw", d, 1e6)
    for d in EIGENSOLVE_DIMS:
        ds = [x for n in eig for x in per_value[(n, d)]]
        m[f"hermitian.eigensolve_ms.d{d}"] = 1e3 * sum(ds) / len(ds) if ds else 0.0
    return m


if __name__ == "__main__":
    if sys.argv[1:] == ["--pool-startup"]:
        print(repr(_pool_startup_ms()))
        sys.exit(0)
    sys.exit(_trace_main(sys.argv[1], sys.argv[2:]))

"""The sample engine: every Monte-Carlo ensemble loop of the package.

:func:`gather_samples` is the one place where a sample index becomes a random
substream and per-sample values become an array.  Its contract:

* ``sample_fn(gen, *args)`` is a module-level function, so it pickles into
  worker processes; it returns one sample (a scalar or an array of fixed
  shape) computed from the generator ``gen`` alone.
* Sample ``i`` draws only from substream ``i`` of ``rng`` (a jump of its
  Philox counter), so its value does not depend on which worker computes it.
* The samples are stacked in index order into one ``(n, ...)`` array and
  every reduction (:meth:`EnsembleEstimate.from_samples`) runs over that
  array, so results are bit-for-bit identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np


def index_chunks(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``n_chunks`` contiguous pieces."""
    n_chunks = max(1, min(n_chunks, n))
    bounds = np.linspace(0, n, n_chunks + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def run_chunked(worker: Callable, payloads: Sequence, workers: int) -> list:
    """Run ``worker`` over payloads, serially or on a process pool.

    Results are returned in payload order regardless of scheduling.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _sample_chunk(payload) -> np.ndarray:
    """Samples ``start..stop-1`` written into one preallocated array."""
    sample_fn, rng, start, stop, args = payload
    out = None
    for i in range(start, stop):
        value = sample_fn(rng.sample_generator(i), *args)
        if out is None:
            value = np.asarray(value)
            out = np.empty((stop - start,) + value.shape, dtype=value.dtype)
        out[i - start] = value
    return out


def gather_samples(sample_fn: Callable, n: int, rng, workers: int,
                   *args) -> np.ndarray:
    """Stacked ``(n, ...)`` array of ``sample_fn(<substream i of rng>, *args)``.

    Serially the whole range is one chunk, so no sample is copied twice;
    with ``workers > 1`` the range is split into chunks that are joined in
    index order.  Raises ``ValueError`` for ``n < 2``, since no standard
    error exists below two samples.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    chunks = index_chunks(n, 1 if workers <= 1 else workers * 4)
    parts = run_chunked(_sample_chunk,
                        [(sample_fn, rng, a, b, args) for a, b in chunks], workers)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

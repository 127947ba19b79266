"""The sample engine: every Monte-Carlo ensemble loop of the package.

:func:`gather_samples` is the one place where a sample index becomes a random
substream and per-sample values become an array.  Its contract:

* ``sample_fn(gen, *args)`` is a module-level function, so it pickles into
  worker processes; it returns one sample (a scalar or an array of fixed
  shape) computed from the generator ``gen`` alone.  With a ``batch_fn``,
  ``sample_fn`` only draws and all assembly of the draws belongs in
  ``batch_fn``: a numpy call there pays its Python overhead once per block,
  not once per sample.
* Sample ``i`` draws only from substream ``i`` of ``rng``: the Philox stream
  of ``rng``'s key started at counter ``[0, 0, i, 0]``, which ``i`` Philox
  jumps reach from counter zero.  A chunk builds one generator and, per index,
  resets its bit generator's state to that counter with an empty output
  buffer, which costs a few microseconds instead of a fresh jump.  So a
  sample's value does not depend on which chunk or worker computes it.
* Samples are drawn in blocks of ``_BLOCK`` consecutive indices.  An optional
  ``batch_fn(block, *args)`` (module-level, like ``sample_fn``) maps the
  ``(m, ...)`` stack of one block to ``m`` output rows, so stacked LAPACK and
  matrix products run once per block.  It must be row-wise: output row ``k``
  depends on input row ``k`` alone and is bit-identical for any ``m``, so
  neither the block size nor the worker count can change a bit.
* The rows are stacked in index order into one ``(n, ...)`` array and every
  reduction (:meth:`EnsembleEstimate.from_samples`) runs over that array, so
  results are bit-for-bit identical for any worker count.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

# Samples drawn before one batch_fn call: bounds the per-block buffers while
# amortising the per-call overhead of stacked LAPACK.
_BLOCK = 1024


def index_chunks(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``n_chunks`` contiguous pieces."""
    n_chunks = max(1, min(n_chunks, n))
    bounds = np.linspace(0, n, n_chunks + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _worker_count(workers: int, n_tasks: int) -> int:
    """Processes actually started: at most one per core and one per task."""
    return max(1, min(workers, os.cpu_count() or 1, n_tasks))


def run_chunked(worker: Callable, payloads: Sequence, workers: int) -> list:
    """Run ``worker`` over payloads, serially or on a process pool.

    The pool never has more processes than cores or payloads.  Results are
    returned in payload order regardless of scheduling.  The pool module is
    imported only here, so a serial run never pays for its import.
    """
    workers = _worker_count(workers, len(payloads))
    if workers == 1:
        return [worker(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _sample_chunk(payload) -> np.ndarray:
    """Rows ``start..stop-1`` written into one preallocated array."""
    sample_fn, batch_fn, rng, start, stop, args = payload
    gen = rng.sample_generator(start)
    bitgen = gen.bit_generator
    # A fresh generator's state: empty buffer, no cached 32-bit half.
    state = bitgen.state
    counter = state["state"]["counter"]
    out = block = None
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        for i in range(lo, hi):
            counter[2] = i
            bitgen.state = state
            value = np.asarray(sample_fn(gen, *args))
            if block is None:
                block = np.empty((min(_BLOCK, stop - start),) + value.shape,
                                 dtype=value.dtype)
            block[i - lo] = value
        rows = block[:hi - lo]
        if batch_fn is not None:
            rows = batch_fn(rows, *args)
        if out is None:
            out = np.empty((stop - start,) + rows.shape[1:], dtype=rows.dtype)
        out[lo - start:hi - start] = rows
    return out


def gather_samples(sample_fn: Callable, n: int, rng, workers: int, *args,
                   batch_fn: Callable | None = None) -> np.ndarray:
    """Stacked ``(n, ...)`` rows of ``sample_fn(<substream i of rng>, *args)``.

    With ``batch_fn`` each block of samples is mapped through
    ``batch_fn(block, *args)`` before it is stored.  Serially the whole range
    is one chunk; with ``workers > 1`` the range is split into chunks that
    are joined in index order.  Raises ``ValueError`` for ``n < 2``, since no
    standard error exists below two samples.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    workers = _worker_count(workers, n)
    chunks = index_chunks(n, 1 if workers == 1 else workers * 4)
    parts = run_chunked(_sample_chunk,
                        [(sample_fn, batch_fn, rng, a, b, args) for a, b in chunks],
                        workers)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

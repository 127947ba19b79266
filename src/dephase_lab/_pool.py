"""The sample engine: every Monte-Carlo ensemble loop of the package.

:func:`gather_samples` is the one place where sample indices become random
substreams and per-block values become an array.  Its contract:

* Block ``b`` holds samples ``b _BLOCK`` to ``(b + 1) _BLOCK - 1`` (the last
  block may be shorter) and draws only from substream ``b`` of ``rng``: the
  Philox stream of ``rng``'s key at counter ``[0, 0, b, 0]``.
* ``block_fn(gen, m, *args)``, a module-level function so that it pickles
  into workers, returns the block's ``m`` rows as one ``(m, ...)`` array
  from the block's fresh generator ``gen`` alone: stacked draws,
  factorisations and products run once per block.  Large stacks are drawn in
  :func:`row_slices`; one-at-a-time samples are drawn one after another.
* Chunks of work are runs of whole blocks, and the rows are stacked in index
  order before any reduction, so results are bit-for-bit identical for any
  worker count.  A non-finite row raises :class:`NumericalError` before a
  reduction sees it; block functions run with numpy's floating-point
  warnings off, since that check reports what they would.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

from .exceptions import NumericalError
from .specfun import _check_int

# Samples per substream.  Small enough that 1000 samples still split over
# two workers, large enough to amortise the per-block numpy calls.
_BLOCK = 256
# Variates per slice of a large-d draw: bounds its buffers (128 KB of normals).
_SLICE = 1 << 14


def row_slices(m: int, row_size: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` pieces of ``range(m)``, each of at least one row of ``row_size``
    variates and at most ``_SLICE`` variates: sliced draws equal one draw."""
    step = max(1, _SLICE // row_size)
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _worker_count(workers: int, n_tasks: int) -> int:
    """Processes actually started: at most one per core and one per task."""
    return max(1, min(_check_int("workers", workers, 1), os.cpu_count() or 1, n_tasks))


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


def _block_chunk(payload) -> np.ndarray:
    """Rows of blocks ``b0..b1-1`` of an ``n``-sample run, in index order."""
    block_fn, rng, n, b0, b1, args = payload
    out = None
    with np.errstate(all="ignore"):
        for b in range(b0, b1):
            rows = block_fn(rng.sample_generator(b), min(_BLOCK, n - b * _BLOCK), *args)
            if out is None:     # one buffer, not a list of blocks to join
                out = np.empty((min(n, b1 * _BLOCK) - b0 * _BLOCK, *rows.shape[1:]),
                               rows.dtype)
            out[(b - b0) * _BLOCK:][:len(rows)] = rows
    return out


def gather_samples(block_fn: Callable, n: int, rng, workers: int,
                   *args) -> np.ndarray:
    """Stacked ``(n, ...)`` rows of ``block_fn(<substream b of rng>, m, *args)``.

    Serially all blocks are one chunk; with ``workers > 1`` they are split into
    chunks joined in index order.  ``n < 2`` raises ``ValueError`` (no stderr exists).
    """
    n = _check_int("n_samples", n, 2)
    n_blocks = -(-n // _BLOCK)
    workers = _worker_count(workers, n_blocks)
    n_chunks = min(n_blocks, 4 * workers) if workers > 1 else 1
    # No more chunks than blocks, so no two edges coincide.
    edges = np.linspace(0, n_blocks, n_chunks + 1, dtype=int).tolist()
    parts = run_chunked(_block_chunk, [(block_fn, rng, n, a, b, args)
                                       for a, b in zip(edges, edges[1:])], workers)
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
    if not np.isfinite(out).all():
        raise NumericalError("a Monte-Carlo sample is not finite")
    return out

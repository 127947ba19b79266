"""The CLI of ``_cli`` behind an eager import of every module, which
``perfbench/tracer.py`` and ``perfbench/run.py`` rely on; ROADMAP item 2
deletes this shim.

Its ``main`` is ``_cli.main``, the in-process entry: it runs without the
one-thread OpenBLAS pin and the collector freeze of ``_cli.run``, which only
``python -m dephase_lab`` and the ``dephase-lab`` script go through.  The
eager import below loads numpy, so a pin set after it would not act.
"""
from . import validate  # noqa: F401  (loads numpy, _pool and every module)
from ._cli import *  # noqa: F401,F403
from ._cli import _emit, main  # noqa: F401

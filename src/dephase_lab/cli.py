"""The CLI of ``_cli`` behind an eager import of every module, which
``perfbench/tracer.py`` and ``perfbench/run.py`` rely on; ROADMAP item 2
deletes this shim."""
from . import validate  # noqa: F401  (loads numpy, _pool and every module)
from ._cli import *  # noqa: F401,F403
from ._cli import _emit, _rate_columns, main  # noqa: F401

if __name__ == "__main__":
    raise SystemExit(main())

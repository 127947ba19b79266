"""The names the benchmark harness reaches in the package still resolve.

``perfbench/tracer.py`` wraps package functions by ``(module, attribute)``
at run time, and ``perfbench/run.py`` imports the CLI as ``dephase_lab.cli``.
A cut that removes one of those names breaks ``run.py --trace 1`` and fails
no other test.  The tracer imports only the standard library at module
level, so loading it here runs no benchmark code.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves():
    wraps = _load_tracer().WRAPS
    assert wraps
    missing = [f"{span}: {mod}.{attr}" for span, (mod, attr, _) in wraps.items()
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, missing
    from dephase_lab.ensembles import RngStream
    assert callable(RngStream.sample_generator)


def test_names_the_bench_runner_imports_resolve():
    from dephase_lab import cli
    for name in ("build_parser", "main", "_emit"):
        assert callable(getattr(cli, name, None)), name
    assert cli.build_parser().prog == "dephase-lab"

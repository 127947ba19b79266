#!/usr/bin/env python3
"""Benchmark of the dephase-lab CLI, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gue-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # every workload once, small sizes

Each CLI command runs as a user runs it: ``python3 -m dephase_lab ...`` in
a fresh process, one at a time, at ``--threads 1``, with the package taken
from ``src/`` and no BLAS or OpenMP thread variable in its environment.  A
*pass* is the workload's list of commands.  ``--trace 0`` measures
``setup_s`` (median of several fresh imports), then runs one warm-up pass
and passes for ``--seconds`` seconds and reports median ``wall_s`` and
``peak_rss_mb``.  ``--trace 1`` runs the workload once as a warm-up, once
untraced and once traced, plus one traced pass of every other workload, so
that every layer metric is measured, and reports the per-layer metrics.

Every pass's output is checked (see ``workloads.py``) and must be
byte-identical to the first pass of the run.  The last line of standard
output is a JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``attempted`` and ``failed`` count the checked items of the named
workload's passes.  Details of the run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_LAUNCHES = 7
MIN_PASSES = 3
IMPORTTIME_LAUNCHES = 5
SETUP_CODE = "import dephase_lab.cli as c; c.build_parser()"
# Thread-count variables dropped from the CLI's environment, so OpenBLAS
# keeps its default thread count as it does for a user.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(args: list[str], stdout_path: Path) -> tuple[float, float, float, int]:
    """Run ``python3 args`` to completion.

    Returns (wall seconds, max RSS in MB, CPU seconds, exit code).
    """
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
            proc.returncode)


class Pass:
    """One pass of a workload's commands: timings, outputs and checks."""

    def __init__(self, cmds, tag: str, spans_dir: Path | None = None):
        self.walls, self.rss, self.cpu, self.outputs, self.spans = [], [], [], [], []
        self.ops: list[workloads.Op] = []
        start = time.perf_counter()
        for i, cmd in enumerate(cmds):
            out = OUT / f"{tag}-{i}.out"
            if spans_dir is None:
                prefix = ["-m", "dephase_lab"]
            else:
                spans = spans_dir / f"{tag}-{i}.spans.json"
                prefix = [str(Path(tracer.__file__)), str(spans)]
            wall, rss, cpu, rc = launch([*prefix, *cmd.argv], out)
            self.walls.append(wall)
            self.rss.append(rss)
            self.cpu.append(cpu)
            self.outputs.append((out.read_bytes(), rc))
            if spans_dir is not None:
                self.spans.append(json.loads(spans.read_text()))
        self.wall = time.perf_counter() - start
        for cmd, (data, rc) in zip(cmds, self.outputs):
            self.ops += cmd.check(data, rc)

    @property
    def failed(self) -> list[workloads.Op]:
        return [op for op in self.ops if not op.ok]

    @property
    def unexpected(self) -> list[workloads.Op]:
        return [op for op in self.ops if not op.ok and not op.known]


def setup_times(n: int) -> list[float]:
    out = OUT / "setup.out"
    times = []
    for _ in range(n):
        wall, _, _, rc = launch(["-c", SETUP_CODE], out)
        if rc != 0:
            raise BenchError(f"importing dephase_lab failed: "
                             f"{out.with_suffix('.err').read_text()[-500:]}")
        times.append(wall)
    return times


def import_breakdown(n: int) -> dict[str, float]:
    """Median cumulative import times (ms) from ``python -X importtime``."""
    out = OUT / "importtime.out"
    rows = []
    for _ in range(n):
        launch(["-X", "importtime", "-c", SETUP_CODE], out)
        cum = {}
        for line in out.with_suffix(".err").read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) / 1e3
        rows.append({"setup.numpy_import_ms": cum["numpy"],
                     "setup.package_import_ms": cum["dephase_lab"] - cum["numpy"],
                     "setup.pool_import_ms": cum["dephase_lab._pool"]})
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def machine_info() -> dict:
    out = OUT / "machine.out"
    launch(["-c", "import numpy; print(numpy.__version__); "
                  "print(numpy.show_config(mode='dicts')['Build Dependencies']"
                  "['blas'].get('version'))"], out)
    lines = out.read_text().split()
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": lines[0] if lines else None,
            "openblas": lines[1] if len(lines) > 1 else None,
            "platform": platform.platform()}


def check_identical(passes: list[Pass]) -> list[str]:
    first = passes[0].outputs
    return [f"pass {i} output differs from the first pass"
            for i, p in enumerate(passes[1:], 1) if p.outputs != first]


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    cmds = workloads.commands(workload, seed)
    warm = Pass(cmds, f"{workload}-warm")
    setup = setup_times(SETUP_LAUNCHES)
    passes = [warm]
    start = time.perf_counter()
    while len(passes) < MIN_PASSES + 1 or time.perf_counter() - start < seconds:
        passes.append(Pass(cmds, f"{workload}-{len(passes)}"))
    measured = passes[1:]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in measured),
        "peak_rss_mb": statistics.median(max(p.rss) for p in measured),
    }
    return {"passes": passes, "metrics": metrics,
            "detail": {"setup_s": setup, "wall_s": [p.wall for p in measured],
                       "peak_rss_mb": [max(p.rss) for p in measured]}}


def run_traced(workload: str, seed: int) -> dict:
    spans_dir = OUT / "spans"
    spans_dir.mkdir(exist_ok=True)
    cmds = workloads.commands(workload, seed)
    warm = Pass(cmds, f"{workload}-warm")
    untraced = Pass(cmds, f"{workload}-untraced")
    traced = Pass(cmds, f"{workload}-traced", spans_dir)
    others = [Pass(workloads.commands(w, seed), f"{w}-traced", spans_dir)
              for w in workloads.WORKLOADS if w != workload]
    metrics = tracer.layer_metrics([s for p in (traced, *others) for s in p.spans])
    metrics.update(import_breakdown(IMPORTTIME_LAUNCHES))
    pool, pool_errors = pool_probes(seed)
    metrics.update(pool)
    cpu = sum(untraced.cpu)
    metrics.update({
        "process.cpu_s": cpu,
        "process.cpu_per_wall": cpu / sum(untraced.walls),
        "trace.untraced_wall_s": untraced.wall,
        "trace.traced_wall_s": traced.wall,
        "trace.overhead_pct": 100.0 * (traced.wall / untraced.wall - 1.0),
    })
    # The other workloads' outputs are checked too, but their items are not
    # counted, so a run's failed share is the same with and without tracing.
    extra = [f"{op.name}: {op.detail}" for p in others for op in p.unexpected]
    extra += pool_errors
    return {"passes": [warm, untraced, traced], "metrics": metrics, "extra_errors": extra}


def pool_probes(seed: int) -> tuple[dict[str, float], list[str]]:
    """Pool start-up and the --threads 2 speed-up: reference figures only."""
    out = OUT / "pool.out"
    _, _, _, rc = launch([str(Path(tracer.__file__)), "--pool-startup"], out)
    if rc != 0:
        raise BenchError(f"pool start-up probe failed: {out.with_suffix('.err').read_text()}")
    argv = ["-m", "dephase_lab", "rate-gue", "--dims", "64", "--samples", "1000",
            "--seed", str(seed), "--threads"]
    t1 = launch([*argv, "1"], OUT / "pool-t1.out")
    t2 = launch([*argv, "2"], OUT / "pool-t2.out")
    same = t1[3] == t2[3] == 0 and \
        (OUT / "pool-t1.out").read_bytes() == (OUT / "pool-t2.out").read_bytes()
    errors = [] if same else ["rate-gue output differs between --threads 1 and 2"]
    return {"pool.startup_ms": float(out.read_text()),
            "pool.speedup_t2": t1[0] / t2[0]}, errors


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} is missing")
    return json.loads(SPEC.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    if not (SRC / "dephase_lab" / "cli.py").is_file():
        raise BenchError("src/dephase_lab is missing: run from the root of a checkout")
    OUT.mkdir(exist_ok=True)
    res = run_traced(workload, seed) if trace else run_untraced(workload, seed, seconds)
    passes = res["passes"]
    errors = check_identical(passes) + res.get("extra_errors", [])
    errors += [f"{op.name}: {op.detail}" for p in passes for op in p.unexpected]
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in res["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {"correct": not errors,
              "attempted": sum(len(p.ops) for p in passes),
              "failed": sum(len(p.failed) for p in passes),
              "metrics": metrics}
    known = sorted({op.name for op in passes[0].failed if op.known})
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_info() if trace else None, "errors": errors,
              "known_failures": known, "detail": res.get("detail"), **result}
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    for name, m in metrics.items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}  attempted {result['attempted']}, failed {result['failed']}"
          f" ({len(known)} known-fault items per pass), correct {result['correct']}")
    for e in errors:
        print(f"{workload}  ERROR {e}")
    return result


def smoke(seed: int) -> bool:
    """Run every workload once at a small size and check its output."""
    OUT.mkdir(exist_ok=True)
    ok = True
    for w in workloads.WORKLOADS:
        p = Pass(workloads.commands(w, seed, "smoke"), f"{w}-smoke")
        bad = p.unexpected
        ok &= not bad
        print(f"{w}: {p.wall:.2f} s, {len(p.ops)} items, {len(p.failed)} failed "
              f"({len(p.failed) - len(bad)} known), peak RSS {max(p.rss):.1f} MB")
        for op in bad:
            print(f"  ERROR {op.name}: {op.detail}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at a small size")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return 0 if smoke(args.seed) else 1
        if args.workload is None:
            ap.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

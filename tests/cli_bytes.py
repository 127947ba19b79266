"""The CLI's bytes as a checked-in corpus.

For each command of :data:`COMMANDS`, ``cli_bytes.json`` (next to this file)
holds the exit code of ``_cli.main``, the SHA-256 of what it writes to
stdout, and a short digest of each stdout line, so that a mismatch can name
the first line that moved.  Stderr is not recorded: its messages may be
reworded without moving a CSV byte.  The bytes are promised per numpy wheel,
so the file also records numpy's version and the schema line.

``tests/test_cli_bytes.py`` runs every command in process and compares.  A
change that moves bytes on purpose rewrites the file with

    python tests/cli_bytes.py --write

which prints, per command, the stdout lines that moved against the file
it replaces (or that the command is new).
Sampled ``tfd`` is left out: its purity follows numpy's SIMD level through
``np.exp``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_bytes.json")

_BETAS = "0,1e-150,1e-9,1e-3,0.1,1,3,100"
COMMANDS = (
    [f"rate-gue --dims 2,4,8,16,32,64 --samples 2000 --seed {s}" for s in (1, 2, 3)]
    + [f"validate --quick --seed {s}" for s in (1, 2, 3)]
    + ["crossover", "crossover --mode exact-binomial", "crossover --gamma 0.7"]
    + [f"tfd --formula-only --log2-dim {x} --beta-list {_BETAS}"
       for x in ("1", "8", "13.6", "14", "20", "50", "100", "1000", "1022")]
    + ["rate-gue --samples 0",                                  # exit 2
       "tfd --formula-only --log2-dim 14 --beta-list 1e-320",   # exit 3
       "crossover --n-max 600 --k-list 300",                    # exit 3
       # Subnormal gamma, calibration far from n0 = 1, and every n to 1023
       # (n = 53, where 2^53 + 1 rounds, and the rows where d^2 overflows).
       "crossover --gamma 5e-324 --k-list 2 --n-max 3",
       "crossover --n0 17 --k-list 1 --n-max 20",
       "crossover --n-max 1023 --k-list 1,2,3,4,5"])


def run(command: str) -> tuple[int, str]:
    """Exit code and stdout of ``_cli.main`` on ``command``; stderr is dropped."""
    from dephase_lab._cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def line_digests(out: str) -> list[str]:
    """A 16-digit digest of each line of ``out``, its line end included."""
    return [sha256(line)[:16] for line in out.splitlines(keepends=True)]


def versions() -> dict:
    """numpy's version and the schema line, which the corpus holds for."""
    import numpy
    from dephase_lab._cli import SCHEMA_COMMENT
    return {"numpy": numpy.__version__, "schema": SCHEMA_COMMENT}


def moved_lines(got: list[str], want: list[str]) -> list[int]:
    """1-based numbers of the lines whose digests differ between ``got`` and
    ``want``, a line present in only one of them included."""
    return [i + 1 for i, (g, w) in enumerate(itertools.zip_longest(got, want))
            if g != w]


def write() -> None:
    old = json.loads(CORPUS.read_text())["commands"] if CORPUS.exists() else {}
    commands = {}
    for command in COMMANDS:
        code, out = run(command)
        commands[command] = {"exit": code, "sha256": sha256(out),
                             "lines": line_digests(out)}
        if command not in old:
            print(f"{command}: new")
            continue
        moved = moved_lines(commands[command]["lines"], old[command]["lines"])
        exit_moved = "" if code == old[command]["exit"] else (
            f", exit {old[command]['exit']} -> {code}")
        print(f"{command}: lines moved {moved or 'none'}{exit_moved}")
    CORPUS.write_text(json.dumps(dict(versions(), commands=commands), indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/cli_bytes.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write()

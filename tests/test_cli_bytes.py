"""Every command of the byte corpus gives the recorded exit code and stdout.

The corpus is ``cli_bytes.json``, written by ``python tests/cli_bytes.py
--write``; see ``cli_bytes.py`` for what it holds and why.  Each command runs
in process through ``_cli.main``.
"""

import json

import pytest

from cli_bytes import COMMANDS, CORPUS, line_digests, run, sha256, versions

RECORDED = json.loads(CORPUS.read_text())


def _mismatch(command: str, want: dict, code: int, out: str) -> str | None:
    """What moved in ``command``'s result against the record ``want``, or None."""
    if code != want["exit"]:
        return f"{command}: exit {code}, the corpus has {want['exit']}"
    if sha256(out) == want["sha256"]:
        return None
    lines, got = out.splitlines(keepends=True), line_digests(out)
    for i, (g, w) in enumerate(zip(got, want["lines"])):
        if g != w:
            return f"{command}: line {i + 1} moved; it now reads {lines[i]!r}"
    return (f"{command}: {len(got)} lines where the corpus has "
            f"{len(want['lines'])}, the first {min(len(got), len(want['lines']))} "
            "unchanged")


def test_the_corpus_holds_for_this_numpy_and_schema():
    # The bytes are promised per numpy wheel; a new schema line means the
    # corpus must be rewritten with the change that moved it.
    have = versions()
    assert have["numpy"] == RECORDED["numpy"], (
        f"the corpus was written under numpy {RECORDED['numpy']} and this is "
        f"numpy {have['numpy']}; rewrite it with python tests/cli_bytes.py --write")
    assert have["schema"] == RECORDED["schema"], (
        f"the schema line is {have['schema']!r} and the corpus holds "
        f"{RECORDED['schema']!r}; rewrite it with python tests/cli_bytes.py --write")


def test_the_corpus_records_every_command():
    assert list(RECORDED["commands"]) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_bytes_match_the_corpus(command):
    code, out = run(command)
    message = _mismatch(command, RECORDED["commands"][command], code, out)
    assert message is None, message


def test_a_mismatch_names_the_command_and_the_first_moved_line():
    want = {"exit": 0, "sha256": sha256("a\r\nb\r\n"),
            "lines": line_digests("a\r\nb\r\n")}
    assert _mismatch("cmd", want, 0, "a\r\nb\r\n") is None
    assert _mismatch("cmd", want, 3, "") == "cmd: exit 3, the corpus has 0"
    assert _mismatch("cmd", want, 0, "a\r\nc\r\n") == (
        "cmd: line 2 moved; it now reads 'c\\r\\n'")
    assert _mismatch("cmd", want, 0, "a\r\n") == (
        "cmd: 1 lines where the corpus has 2, the first 1 unchanged")

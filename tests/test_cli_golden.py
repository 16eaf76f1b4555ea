"""Golden CLI transcripts: every case pins argv, exit code, stdout and stderr byte for byte.

Each file in tests/golden/cases holds one invocation; bundle paths in argv are
relative to tests/golden, so the CLI runs from there and error messages that
echo the path stay stable.  argparse wraps help text to the terminal width,
so the runner fixes COLUMNS at 80 for the --help cases.
"""

import argparse
import json
from pathlib import Path

import pytest

from torusbundles import snf
from torusbundles.cli import _build_parser, run

from support import replace_everywhere

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted((GOLDEN / "cases").glob("*.json"))


def _assert_replays(case, monkeypatch, capsys):
    expected = json.loads(case.read_text(encoding="utf-8"))
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    code = run(expected["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        expected["exit_code"],
        expected["stdout"],
        expected["stderr"],
    ), case.stem


@pytest.mark.parametrize("case", CASES, ids=[c.stem for c in CASES])
def test_cli_transcript(case, monkeypatch, capsys):
    _assert_replays(case, monkeypatch, capsys)


def test_no_transcript_reaches_snf(monkeypatch, capsys):
    """snf is the tests' reference only: with it raising, every transcript still replays."""

    def refuse(m):
        raise AssertionError(f"snf called on a {m.rows}x{m.cols} matrix")

    replace_everywhere(monkeypatch, snf, refuse)
    for case in CASES:
        _assert_replays(case, monkeypatch, capsys)


def test_every_subcommand_has_text_json_and_help_cases():
    """A subcommand the parser registers without goldens fails here, so new ones cannot skip them."""
    covered = set()
    for case in CASES:
        expected = json.loads(case.read_text(encoding="utf-8"))
        argv = expected["argv"]
        kind = "help" if "--help" in argv else "json" if "--format=json" in argv else "text"
        if expected["exit_code"] == 0:
            covered.add((argv[0], kind))
    (subparsers,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = {(name, kind) for name in subparsers.choices for kind in ("text", "json", "help")} - covered
    assert not missing

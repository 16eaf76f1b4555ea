"""Golden CLI transcripts: every case pins argv, exit code, stdout and stderr byte for byte.

Each file in tests/golden/cases holds one invocation; bundle paths in argv are
relative to tests/golden, so the CLI runs from there and error messages that
echo the path stay stable.
"""

import json
from pathlib import Path

import pytest

from torusbundles.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted((GOLDEN / "cases").glob("*.json"))


@pytest.mark.parametrize("case", CASES, ids=[c.stem for c in CASES])
def test_cli_transcript(case, monkeypatch, capsys):
    expected = json.loads(case.read_text(encoding="utf-8"))
    monkeypatch.chdir(GOLDEN)
    code = run(expected["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        expected["exit_code"],
        expected["stdout"],
        expected["stderr"],
    )

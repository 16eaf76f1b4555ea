"""README.md states checked facts: every test that it or a source file under src/ cites by its pytest id exists,
it quotes no measured figure, and its sample classification is the CLI's output.

A count or a bound in the prose names the test that pins it instead of restating the figure, so a citation that
goes stale must fail as a broken test would.  Timings, memory figures and BENCH medians change with every
re-measurement; CHANGES.md and the BENCH_*.json files hold them.
"""

import ast
import json
import re
from pathlib import Path

from torusbundles.cli import run

ROOT = Path(__file__).resolve().parent.parent
# any <path>.py::<name> or <path>.py::<Class>::<name>, so a citation without its tests/ prefix is caught as well
# as one of a renamed test or of a method its class does not define
CITATION = re.compile(r"([\w/]*?)(\w+\.py)::(\w+(?:::\w+)?)")
# a number with a time, memory or size unit, a percentage, or a BENCH record's name
MEASURED = re.compile(r"\d(?:[\d,.]*\d)?\s?(?:ms|s|µs|us|ns|MiB|KiB|GiB|MB|KB|kB|GB)\b|\d%|BENCH_\d+")
SAMPLE_COMMAND = "$ torusbundles classify bundle.json"


def _functions(file: str) -> set[str]:
    """Every function name a test file defines, and each method also as <Class>::<name>."""
    path = ROOT / file
    if not (file.startswith("tests/") and path.is_file()):
        return set()
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return {node.name for node in nodes if isinstance(node, ast.FunctionDef)} | {
        f"{node.name}::{method.name}"
        for node in nodes
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef)
    }


def _code_blocks(text: str) -> list[tuple[str, list[str]]]:
    """Each fenced block of a markdown text, as its info string and its lines."""
    return [(info, body.splitlines()) for info, body in re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)]


def test_every_cited_test_exists():
    cited = {
        (path.relative_to(ROOT).as_posix(), prefix + file, name)
        for path in [ROOT / "README.md", *sorted((ROOT / "src").rglob("*.py"))]
        for prefix, file, name in CITATION.findall(path.read_text())
    }
    assert len(cited) >= 5  # the budgets' comments alone cite five
    defined = {file: _functions(file) for _, file, _ in cited}
    assert sorted(f"{source}: {file}::{name}" for source, file, name in cited if name not in defined[file]) == []


def test_readme_states_no_measured_figure():
    lines = (ROOT / "README.md").read_text().splitlines()
    assert [f"README.md:{i}: {line}" for i, line in enumerate(lines, 1) if MEASURED.search(line)] == []


def test_readme_sample_classification_is_the_cli_output(tmp_path, capsys):
    blocks = _code_blocks((ROOT / "README.md").read_text())
    (document,) = ["\n".join(body) for info, body in blocks if info == "json"]
    assert json.loads(document)["genus"] == 2
    (sample,) = [body[1:] for _, body in blocks if body and body[0] == SAMPLE_COMMAND]
    shown = sample[: sample.index("...")] if "..." in sample else sample
    path = tmp_path / "bundle.json"
    path.write_text(document)
    assert run(["classify", str(path)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert len(shown) >= 8  # genus through the verdict
    assert stdout[: len(shown)] == shown

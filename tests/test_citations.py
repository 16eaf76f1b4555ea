"""Every test that README.md or a source file under src/ cites by its pytest id exists.

A count or a bound in the prose names the test that pins it instead of restating the figure, so a citation that
goes stale must fail as a broken test would.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# any <path>.py::<name>, so a citation without its tests/ prefix is caught as well as one of a renamed test
CITATION = re.compile(r"([\w/]*?)(\w+\.py)::(\w+)")


def _functions(file: str) -> set[str]:
    path = ROOT / file
    if not (file.startswith("tests/") and path.is_file()):
        return set()
    return {node.name for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}


def test_every_cited_test_exists():
    cited = {
        (path.relative_to(ROOT).as_posix(), prefix + file, name)
        for path in [ROOT / "README.md", *sorted((ROOT / "src").rglob("*.py"))]
        for prefix, file, name in CITATION.findall(path.read_text())
    }
    assert len(cited) >= 5  # the budgets' comments alone cite five
    defined = {file: _functions(file) for _, file, _ in cited}
    assert sorted(f"{source}: {file}::{name}" for source, file, name in cited if name not in defined[file]) == []

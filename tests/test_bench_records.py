"""Every committed BENCH_*.json run record names a declared workload and carries a complete, clean result."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
METRICS = {m["name"] for m in DECLARED["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _runs():
    for path in RECORDS:
        for i, run in enumerate(json.loads(path.read_text())["runs"]):
            yield pytest.param(run, id=f"{path.stem}-{i}")


def test_bench_records_exist():
    assert RECORDS


@pytest.mark.parametrize("run", _runs())
def test_run_record_is_complete(run):
    assert run["workload"] in WORKLOADS
    assert isinstance(run["seed"], int) and not isinstance(run["seed"], bool)
    assert run["side"].startswith(("parent", "change"))
    assert isinstance(run["passes"], int) and run["passes"] >= 3
    assert re.fullmatch(r"[0-9a-f]{40}", run["git_sha"])
    final = run["final_line"]
    assert final["correct"] is True
    assert final["failed"] == 0
    assert METRICS <= set(final["metrics"])

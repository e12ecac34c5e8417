"""Quick runs of the benchmark, so the harness does not rot.

Run from the repository root with ``python3 -m pytest perfbench``.  These
tests sit outside the package's own suite: each run takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_checks_outputs_and_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "sweep-q", 0)
    assert done.returncode != 0
    assert done.stdout == ""

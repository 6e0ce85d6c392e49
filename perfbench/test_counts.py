"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_counts.py

Run from the root of an rcaudit source checkout. Each traced run takes
about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from inputs import write_dataset  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    details = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace1" / "details.json"
    return json.loads(details.read_text(encoding="utf-8"))


def traced_counts(details: dict) -> list[dict]:
    return [run["counts"] for run in details["runs"] if run["traced"]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timing_free_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    assert first["inputs"] == second["inputs"]
    counts = traced_counts(first) + traced_counts(second)
    assert counts and all(c == counts[0] for c in counts)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_another_seed_gives_other_inputs(workload, tmp_path):
    def sha(seed: int) -> str:
        w = WORKLOADS[workload](seed, tmp_path)
        return write_dataset(w.instances(), tmp_path / f"{seed}.jsonl")

    assert sha(3) == sha(3)
    assert sha(3) != sha(4)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "align-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

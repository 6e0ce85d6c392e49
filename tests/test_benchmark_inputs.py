"""The benchmark's seeded inputs must keep their bytes, and its occlusion
workload its results: the occlusion-longctx workload refuses to run on a
dataset whose sha256 is not the recorded one, and fails a run whose
calibration counts are not the recorded ones."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

WRITE_INPUTS = """
import json
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from inputs import padded_corpus, write_dataset
out = Path(sys.argv[3])
shas = {
    seed: write_dataset(padded_corpus(6, seed, 45, 415), out / f"dataset-{seed}.jsonl")
    for seed in (0, 3)
}
print(json.dumps(shas))
"""


def test_occlusion_longctx_inputs_match_their_recorded_sha256(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            WRITE_INPUTS,
            str(REPO / "src"),
            str(REPO / "perfbench"),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    recorded = json.loads((REPO / "perfbench" / "expected_calibration.json").read_text())
    assert got == {seed: recorded[seed]["sha256"] for seed in ("0", "3")}


RUN_CALIBRATIONS = """
import json
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from inputs import write_dataset
from workloads import OcclusionLongctx, run_in_process
work = Path(sys.argv[3])
counts = {}
for seed in (0, 3, 77):
    workload = OcclusionLongctx(seed, work)
    dataset = work / f"dataset-{seed}.jsonl"
    write_dataset(workload.instances(), dataset)
    out = work / f"out-{seed}"
    run_in_process(workload.command(dataset, out))
    counts[seed] = workload.calibration(out)
print(json.dumps(counts))
"""


def test_occlusion_longctx_reproduces_its_recorded_calibration(tmp_path):
    """The workload's output check compares these counts; a change to the
    numbers of occlusion, the toy model or the draws fails here first."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            RUN_CALIBRATIONS,
            str(REPO / "src"),
            str(REPO / "perfbench"),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    recorded = json.loads((REPO / "perfbench" / "expected_calibration.json").read_text())
    keys = ("n_draws", "n_significant", "rate")
    assert got == {seed: {k: recorded[seed][k] for k in keys} for seed in ("0", "3", "77")}

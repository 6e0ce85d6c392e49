"""The benchmark's seeded inputs must keep their bytes: the occlusion-longctx
workload refuses to run on a dataset whose sha256 is not the recorded one."""

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

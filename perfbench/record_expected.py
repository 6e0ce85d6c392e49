"""Record the calibration counts the occlusion-longctx check expects.

    python3 perfbench/record_expected.py

Run from the root of an rcaudit source checkout. For every input seed the
workload can use it writes the dataset, runs the workload's command once in
this process, and stores the input's sha256 with `n_draws`,
`n_significant` and `rate` from `calibration.json` in
`expected_calibration.json`. Re-record only when the workload's inputs or
command change, never to follow a change in the program's results.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from inputs import write_dataset  # noqa: E402
from workloads import OcclusionLongctx, run_in_process  # noqa: E402


def main() -> int:
    table = {}
    work = Path.cwd() / ".bench_work" / "record_expected"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for seed in range(OcclusionLongctx.table_seeds):
        workload = OcclusionLongctx(seed, work)
        dataset = work / f"dataset-{seed}.jsonl"
        sha256 = write_dataset(workload.instances(), dataset)
        out = work / f"out-{seed}"
        run_in_process(workload.command(dataset, out))
        table[str(seed)] = {"sha256": sha256, **workload.calibration(out)}
        print(seed, table[str(seed)], file=sys.stderr)
    OcclusionLongctx.table_path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""rcaudit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload occlusion-longctx --seed 1 --seconds 30 --trace 0

Run it from the root of an rcaudit source checkout; the package is used
from `src/` and need not be installed. Inputs come from the seed. Each
timed run is a fresh child process, forked by `worker.py` after it has
imported `rcaudit.cli`, that calls `rcaudit.cli.main(argv)` once; runs
repeat until `--seconds` have passed and every run's outputs are checked.
A new `worker.py` is started every quarter of `--seconds`, and each start
gives one set-up time.

Reference chunks (`reference.py`) are timed before and after each run, and
the run's times are scaled to the reference machine speed by them. With
`--trace 0` the end-to-end metrics are the medians over the runs. With
`--trace 1` traced and untraced runs alternate and the per-layer metrics of
the traced runs are reported instead, with the tracing overhead. The last
line of standard output is one JSON object; the exit code is 1 when an
output check failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RUN_TIMEOUT_S = 120
# Fork servers started per run, so that set-up is timed this many times.
SETUPS_PER_RUN = 4
# Reference chunks are timed for this share of each run's length after it,
# and for FIRST_REFERENCE_S before the first run.
REFERENCE_SHARE = 0.1
FIRST_REFERENCE_S = 0.5


def declared_metrics() -> dict[str, dict[str, str]]:
    """Units of the metrics BENCHMARK.json declares, by trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class Worker:
    """A `worker.py` fork server; its children run the timed commands."""

    def __init__(self, env: dict, log_path: Path) -> None:
        self.started = time.monotonic()
        with open(log_path, "a", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), repr(self.started)],
                cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log, text=True, start_new_session=True,
            )
        try:
            self.setup_s = self._reply()["setup_s"]
        except BaseException:
            self.stop(wait_s=0)
            raise

    def _reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], RUN_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise TimeoutError("worker.py gave no reply" if ready else
                               f"no reply from worker.py within {RUN_TIMEOUT_S} s")
        return json.loads(line)

    def run(self, job: dict) -> int:
        """Exit status of one forked run of `job`."""
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        return self._reply()["status"]

    def stop(self, wait_s: float = RUN_TIMEOUT_S) -> None:
        """End the server, then kill whatever is left of its session."""
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        with contextlib.suppress(subprocess.TimeoutExpired):
            self.proc.wait(timeout=wait_s)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


def run_once(workload, dataset: Path, n_instances: int, run_dir: Path, traced: bool,
             worker: Worker) -> dict:
    """One timed command in a forked child process, then its output check."""
    out = run_dir / "out"
    workload.before_run(out)
    server_report = run_dir / "server.json" if traced and workload.remote else None
    spans = run_dir / "spans.json" if traced else None
    result_path = run_dir / "result.json"
    run = {"traced": traced, "error": None}
    try:
        status = worker.run({
            "argv": workload.command(dataset, out, server_report), "result": str(result_path),
            "log": str(run_dir / "log.txt"), "spans": str(spans) if spans else None,
        })
    except (OSError, TimeoutError) as exc:
        run["error"] = f"{exc}; see {run_dir / 'log.txt'}"
        run["worker_lost"] = True
        return run
    if status != 0 or not result_path.exists():
        run["error"] = f"run exited with {status}; see {run_dir / 'log.txt'}"
        return run
    run.update(json.loads(result_path.read_text(encoding="utf-8")))
    if run["exit_code"] != 0:
        run["error"] = f"rcaudit exited with {run['exit_code']}; see {run_dir / 'log.txt'}"
        return run
    run["error"] = workload.check(out)
    if traced and run["error"] is None:
        from tracing import layer_metrics

        server = json.loads(server_report.read_text(encoding="utf-8")) if server_report else None
        cache = out / "saliency_cache.jsonl"
        run["counts"], run["timings"] = layer_metrics(
            json.loads(spans.read_text(encoding="utf-8"))["spans"], server,
            n_instances, cache.stat().st_size if cache.exists() else 0,
        )
    return run


def guard_problems(workload, runs: list[dict]) -> list[str]:
    """Traced-run checks that the intended code path was measured."""
    problems = []
    counts = [r["counts"] for r in runs]
    if any(c != counts[0] for c in counts):
        problems.append("timing-free counts differ between traced runs of one input")
    hit_frac = counts[0]["saliency.cache_hit_frac"]
    if hit_frac != workload.expected_cache_hit_frac:
        problems.append(
            f"saliency.cache_hit_frac is {hit_frac}, want {workload.expected_cache_hit_frac}"
        )
    if workload.remote and counts[0]["remote.round_trips"] <= 0:
        problems.append("no remote round trips were made")
    return problems


def median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def scaled_median(runs: list[dict], key: str, group: str | None = None) -> float:
    """Median of a time over runs, each scaled to the reference machine speed."""
    return statistics.median((r[group] if group else r)[key] * r["scale"] for r in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rcaudit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rcaudit" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'rcaudit'} not found; run from the root of an rcaudit "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import write_dataset
    from reference import NOMINAL_CHUNK_S, chunks_for
    from workloads import WORKLOADS, BenchError

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics()
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    instances = workload.instances()
    dataset = work / "dataset.jsonl"
    sha256 = write_dataset(instances, dataset)
    try:
        workload.prepare(dataset, sha256)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Workers, and the remote server they start, inherit this one CPU. The
    # client and server take turns anyway (one call is outstanding), and on
    # a shared virtual machine waking a process on another CPU adds delays
    # that vary far more from run to run than the work measured.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    runs: list[dict] = []
    setups: list[dict] = []
    chunks = chunks_before = chunks_for(FIRST_REFERENCE_S)
    worker = None
    start = last = time.monotonic()
    try:
        # Stop when another run of the same length would overrun --seconds.
        while len(runs) < 2 or 2 * time.monotonic() - last - start <= args.seconds:
            last = time.monotonic()
            if worker is None or last - worker.started >= args.seconds / SETUPS_PER_RUN:
                if worker is not None:
                    worker.stop()
                worker = None
                try:
                    worker = Worker(env, work / "worker-log.txt")
                except (OSError, TimeoutError) as exc:
                    print(f"perfbench: cannot start worker.py: {exc}; see "
                          f"{work / 'worker-log.txt'}", file=sys.stderr)
                    return 2
                setups.append({"setup_s": worker.setup_s, "run": len(runs)})
            run_dir = work / f"run{len(runs):03d}"
            run_dir.mkdir()
            traced = bool(args.trace) and len(runs) % 2 == 1
            run = run_once(workload, dataset, len(instances), run_dir, traced, worker)
            runs.append(run)
            chunks_after = chunks_for(REFERENCE_SHARE * (time.monotonic() - last))
            # The machine's speed changes within seconds, so each run is
            # scaled by the reference chunks timed just before and after it.
            run["scale"] = NOMINAL_CHUNK_S / statistics.median(chunks_before + chunks_after)
            chunks, chunks_before = chunks + chunks_after, chunks_after
            if run.pop("worker_lost", False):
                worker.stop(wait_s=0)
                worker = None
            if run["error"] is None and not traced:
                shutil.rmtree(run_dir)
    finally:
        if worker is not None:
            worker.stop()
    for setup in setups:
        setup["scale"] = runs[setup["run"]]["scale"]
    failed = [r for r in runs if r["error"]]
    good = [r for r in runs if not r["error"]]
    plain = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    problems = [r["error"] for r in failed]
    if args.trace and traced_runs:
        problems += guard_problems(workload, traced_runs)
    metrics: dict[str, float] = {}
    if plain and not args.trace:
        for r in plain:
            r["instances_per_s"] = len(instances) / (r["wall_s"] * r["scale"])
        metrics = {
            "wall_s": scaled_median(plain, "wall_s"),
            "instances_per_s": median(plain, "instances_per_s"),
            "cpu_s": scaled_median(plain, "cpu_s"),
            "setup_s": scaled_median(setups, "setup_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
        }
    elif plain and traced_runs:
        metrics = dict(traced_runs[0]["counts"])
        metrics.update({k: scaled_median(traced_runs, k, "timings")
                        for k in traced_runs[0]["timings"]})
        metrics["trace.overhead_frac"] = (
            scaled_median(traced_runs, "wall_s") / scaled_median(plain, "wall_s") - 1
        )
        metrics["reference.chunk_s"] = statistics.median(chunks)
    wanted = units["per_layer" if args.trace else "end_to_end"]
    if metrics and set(metrics) != set(wanted):
        problems.append(f"metrics {sorted(set(metrics) ^ set(wanted))} are not the declared set")
    correct = not problems and bool(metrics)

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": {dataset.name: sha256}, "n_instances": len(instances),
        "problems": problems, "setups": setups, "reference_chunks_s": chunks, "runs": runs,
        "metrics": metrics,
    }
    (work / "details.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} runs ({len(traced_runs)} traced), {len(failed)} failed")
    print(f"  input {dataset.name} sha256={sha256} ({len(instances)} instances)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {wanted.get(name, '?')}")
    if plain:
        print(f"  as measured: wall_s {median(plain, 'wall_s'):.6g} s, cpu_s "
              f"{median(plain, 'cpu_s'):.6g} s, setup_s {median(setups, 'setup_s'):.6g} s; "
              f"reference chunk {statistics.median(chunks) * 1e3:.4g} ms")
    print(f"  {'failed_frac':36s} {len(failed) / len(runs):.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": wanted[name]}
                    for name, value in metrics.items() if name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

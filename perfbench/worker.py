"""Fork server for timed rcaudit runs: each run is a fresh child process.

    python3 perfbench/worker.py SPAWNED_AT

SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process; the same clock read after `import rcaudit.cli` gives the set-up
time, which is the first line this process prints (as JSON). It then reads
one job a line from standard input, a JSON object with `argv`, `result`,
`log` and `spans` (a path, or null for an untraced run). For each job it
forks a child that calls `rcaudit.cli.main(argv)` once, writes what the run
cost to `result` and exits; when the child has ended it prints the child's
exit status as one JSON line. It exits when standard input closes.

Forking from a process that has only imported `rcaudit.cli` gives every
run the state a fresh process has after that import, without paying the
import again for each run.
"""

import sys
import time

import rcaudit.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_job(job: dict) -> None:
    """In the forked child: run the command once and write its costs."""
    devnull = os.open(os.devnull, os.O_RDONLY)
    log = os.open(job["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(devnull, 0)
    os.dup2(log, 1)
    os.dup2(log, 2)
    tracer = None
    if job["spans"] is not None:
        from tracing import Tracer, install_client

        tracer = Tracer()
        install_client(tracer)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    code = rcaudit.cli.main(job["argv"])
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.dump(Path(job["spans"]))
    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(children1) - _cpu(children0),
        "peak_rss_mb": self1.ru_maxrss / 1024,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


def main(argv: list[str]) -> int:
    (spawned_at,) = argv
    print(json.dumps({"setup_s": IMPORTED_AT - float(spawned_at)}), flush=True)
    while line := sys.stdin.readline():
        job = json.loads(line)
        pid = os.fork()
        if pid == 0:
            status = 0
            try:
                run_job(job)
            except BaseException:
                traceback.print_exc()
                status = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

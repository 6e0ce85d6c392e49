"""The benchmark's workloads: seeded inputs, the rcaudit command each one
runs, the untimed preparation it needs, and the check on its outputs.

All three use the seeded toy model `toy:7` and one client process with no
threads, so gateway calls form a closed loop with one call outstanding.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shlex
import shutil
import sys
from pathlib import Path

from inputs import padded_corpus
from rcaudit.cli import main as rcaudit_main
from rcaudit.synthetic import make_synthetic_corpus

BENCH_DIR = Path(__file__).resolve().parent
TOY_MODEL = "toy:7"
# Tolerance of the acceptance gate's integrated-gradients closed-form test.
IG_TOLERANCE = 1e-9


class BenchError(Exception):
    """The benchmark cannot run or cannot check this workload."""


def run_in_process(argv: list[str]) -> None:
    """Run an untimed rcaudit command in this process, quietly."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = rcaudit_main(argv)
    if code != 0:
        raise BenchError(f"untimed run `rcaudit {' '.join(argv)}` exited with {code}")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class Workload:
    name: str
    # saliency.cache_hit_frac the traced run must show: the guard against
    # timing a warm path that silently runs cold, or the other way round.
    expected_cache_hit_frac = 0.0
    remote = False

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def instances(self) -> list:
        raise NotImplementedError

    def command(self, dataset: Path, out: Path, server_report: Path | None = None) -> list[str]:
        """rcaudit argv; `server_report` asks for the traced remote server."""
        raise NotImplementedError

    def prepare(self, dataset: Path, sha256: str) -> None:
        """Untimed work before the first run: references for `check`."""

    def before_run(self, out: Path) -> None:
        """Untimed work before each run, in its fresh output directory."""

    def check(self, out: Path) -> str | None:
        """Why the run's outputs are wrong, or None when they are right."""
        raise NotImplementedError


class OcclusionLongctx(Workload):
    """Occlusion calibration on instances padded to 45-415 words.

    Occlusion makes N+1 predictions per instance and each decodes spans in
    O(n * 30), so span decoding, masking and the toy forward pass do almost
    all the work; no cache, no remote gateway. The expected calibration
    counts come from a table recorded with `record_expected.py`, one entry
    per input seed; the run's seed is folded into the table's range.
    """

    name = "occlusion-longctx"
    n_instances = 6
    # question plus context words; contexts run from about 30 to 400 words
    min_words, max_words = 45, 415
    table_path = BENCH_DIR / "expected_calibration.json"
    table_seeds = 128

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed % self.table_seeds, work)

    def instances(self) -> list:
        return padded_corpus(self.n_instances, self.seed, self.min_words, self.max_words)

    def command(self, dataset, out, server_report=None):
        return [
            "calibrate", "--dataset", str(dataset), "--method", "occlusion",
            "--n-partitions", "20", "--model", TOY_MODEL, "--seed", str(self.seed),
            "--out", str(out),
        ]

    def prepare(self, dataset, sha256):
        table = json.loads(self.table_path.read_text(encoding="utf-8"))
        entry = table.get(str(self.seed))
        if entry is None or entry["sha256"] != sha256:
            raise BenchError(
                f"{self.name}: no recorded calibration for input seed {self.seed} with "
                f"sha256 {sha256}; inputs changed since {self.table_path.name} was recorded"
            )
        self.expected = entry

    def calibration(self, out: Path) -> dict:
        doc = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        return {key: doc[key] for key in ("n_draws", "n_significant", "rate")}

    def check(self, out):
        got = self.calibration(out)
        want = {key: self.expected[key] for key in got}
        return None if got == want else f"calibration {got} != recorded {want}"


class IgRemote(Workload):
    """Integrated gradients (256 steps) through a stdio `remote:` gateway.

    Each instance needs about 258 round trips, each re-sending the instance
    and an n x 16 matrix as JSON, so the remote layer dominates while span
    decoding and masking barely run. The server is started as
    `sys.executable -m rcaudit.gateway.remote` with PYTHONPATH passed down,
    because the package is not installed.
    """

    name = "ig-remote"
    n_instances = 6
    # question plus context words, the same for every instance so that each
    # seed sends the same amount of data
    n_words = 32
    remote = True

    def instances(self):
        return padded_corpus(self.n_instances, self.seed, self.n_words, self.n_words)

    def _align(self, dataset: Path, out: Path, model: str) -> list[str]:
        return [
            "align", "--dataset", str(dataset), "--method", "ig", "--ig-steps", "256",
            "--model", model, "--out", str(out),
        ]

    def command(self, dataset, out, server_report=None):
        python = shlex.quote(sys.executable)
        if server_report is None:
            server = f"{python} -m rcaudit.gateway.remote --model {TOY_MODEL}"
        else:
            launcher = shlex.quote(str(BENCH_DIR / "serve_traced.py"))
            report = shlex.quote(str(server_report))
            server = f"{python} {launcher} --model {TOY_MODEL} --report {report}"
        return self._align(dataset, out, f"remote:{server}")

    def prepare(self, dataset, sha256):
        reference = self.work / "in-process"
        run_in_process(self._align(dataset, reference, TOY_MODEL))
        self.reference = read_jsonl(reference / "alignment_records.jsonl")

    def check(self, out):
        got = read_jsonl(out / "alignment_records.jsonl")
        if [r["instance_id"] for r in got] != [r["instance_id"] for r in self.reference]:
            return "audited instances differ from the in-process run's"
        for g, w in zip(got, self.reference):
            for key in ("aligned", "significant", "cf_both_correct"):
                if g[key] != w[key]:
                    return f"{g['instance_id']}: {key}={g[key]}, in-process run gave {w[key]}"
            for key in ("t", "p"):
                a, b = g[key], w[key]
                if not (a == b or math.isclose(a, b, rel_tol=IG_TOLERANCE, abs_tol=IG_TOLERANCE)):
                    return f"{g['instance_id']}: {key}={a!r}, in-process run gave {b!r}"
        return None


class AlignWarm(Workload):
    """Occlusion alignment audit over a saliency cache filled beforehand.

    An untimed cold run of the same command fills `saliency_cache.jsonl`;
    each timed run starts from a copy of it. Corpus loading, counterfactual
    generation, cache load and save, partitions, the Welch test and report
    writing dominate; the gateway makes two predictions per audited pair.
    """

    name = "align-warm"
    n_instances = 1500
    expected_cache_hit_frac = 1.0

    def instances(self):
        return make_synthetic_corpus(self.n_instances, self.seed)

    def command(self, dataset, out, server_report=None):
        return [
            "align", "--dataset", str(dataset), "--method", "occlusion",
            "--model", TOY_MODEL, "--out", str(out),
        ]

    def prepare(self, dataset, sha256):
        self.cold = self.work / "cold"
        run_in_process(self.command(dataset, self.cold))
        self.records = (self.cold / "alignment_records.jsonl").read_bytes()

    def before_run(self, out):
        out.mkdir(parents=True)
        shutil.copyfile(self.cold / "saliency_cache.jsonl", out / "saliency_cache.jsonl")

    def check(self, out):
        if (out / "alignment_records.jsonl").read_bytes() != self.records:
            return "alignment records differ from the cold run's"
        return None


WORKLOADS = {w.name: w for w in (OcclusionLongctx, IgRemote, AlignWarm)}

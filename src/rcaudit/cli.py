"""Command-line surface tying the audit pipeline together.

Subcommands: evaluate, saliency, cf-generate, align, calibrate, heuristic.
Every command reads a dataset, runs one stage of the pipeline, and writes
deterministic JSON/CSV reports into the output directory. Each command takes
only the flags it reads (`COMMANDS`, over the one flag table `FLAGS`). A
key-value config file can preload any flag, and each command takes from it
the flags it reads; explicit flags win.

A command line is read from those two tables alone (`read_command_line`,
over `rcaudit.read_options`), in argparse's order and words; `--help` is
laid out from them too.

Exit codes: 0 success, 2 input error, 3 missing model capability, 4 internal
error. A refused command line (a flag spelled in part included) exits 2,
and `--help` exits 0; `main` returns these codes, as it does every other,
instead of raising `SystemExit`.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

from . import UsageExit, read_options, usage_exit
from .alignment import (
    AlignmentReport,
    alignment_csv,
    audit_alignment,
    calibrate,
    check_audit,
    check_calibration,
    plan_audit,
    plan_pairs,
    record_to_dict,
)
from .corpus.loader import DatasetDescriptor, LoadResult, load_dataset
from .counterfactuals import (
    ANTONYM_TABLES,
    AntonymTable,
    CFPair,
    load_cf_pairs,
    perturb_comparison,
    plan_antonym_swap,
    save_cf_pairs,
)
from .errors import AuditError, CapabilityError, InputError
from .gateway import build_gateway
from .gateway.base import predict
from .heuristic import SELECTION_STRATEGIES, heuristic_answer
from .metrics import macro_average, score_answer
from .saliency import SaliencyCache, SaliencyConfig
from .synthetic import make_synthetic_corpus
from .types import RCInstance

METHOD_ALIASES = {"occlusion": "occlusion", "ig": "integrated_gradients"}

# One entry per flag: its dest, and its type, default and help. The option is
# the dest with dashes; the order is the order of each command's --help.
FLAGS: dict[str, tuple[type, object, str]] = {
    "dataset": (str, None, "dataset path or synthetic:<n>"),
    "format": (str, "unified", "dataset format (unified, squad_like, quoref_like, "
                               "hotpot_like, wiki2hop_like)"),
    "context_mode": (str, "paragraphs", "context reduction: supporting_facts or paragraphs"),
    "model": (str, "toy:0", "gateway spec: toy:<seed>[:<dim>], remote:<endpoint>, "
                            "scripted:<path>, oracle, frequency"),
    "method": (str, "occlusion", "saliency method: occlusion or ig"),
    "summarizer": (str, "l2", "attribution summarizer: l1, l2, dot"),
    "ig_steps": (int, 50, "Riemann steps for integrated gradients"),
    "alpha": (float, 0.05, "significance level"),
    "antonyms": (str, "in_dist", "antonym table for operator swaps: in_dist or ood"),
    "seed": (int, 0, "global random seed"),
    "out": (str, "audit_out", "output directory"),
    "config": (str, None, "key-value config file; flags override"),
    "cf_file": (str, None, "hand-authored coreference counterfactual pairs (JSON lines)"),
    "n_partitions": (int, 1, "random partitions drawn per instance"),
    "strategy": (str, "token_overlap", "sentence selection: " + ", ".join(SELECTION_STRATEGIES)),
}


def read_config(path: str | Path) -> dict:
    """Parse a `name = value` config file into flag defaults; any flag but
    --config may be set, whichever commands read it."""
    values: dict = {}
    config_path = Path(path)
    if not config_path.exists():
        raise InputError(f"config file not found: {config_path}")
    for line_no, raw in enumerate(config_path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if not sep or not key or not value:
            raise InputError(f"{config_path}:{line_no}: expected `name = value`")
        if key not in FLAGS or key == "config":
            raise InputError(f"{config_path}:{line_no}: unknown setting {key!r}")
        try:
            values[key] = FLAGS[key][0](value)
        except ValueError:
            raise InputError(f"{config_path}:{line_no}: bad value for {key}: {value!r}")
    return values


def load_instances(args) -> tuple[list[RCInstance], list]:
    """Resolve --dataset into instances plus a skip report."""
    if not args.dataset:
        raise InputError("--dataset is required")
    spec = str(args.dataset)
    if spec.startswith("synthetic:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad synthetic dataset spec {spec!r}")
        return make_synthetic_corpus(n, args.seed), []
    descriptor = DatasetDescriptor(path=spec, format=args.format, context_mode=args.context_mode)
    result: LoadResult = load_dataset(descriptor)
    skipped = [[s.record_index, s.instance_id, s.reason] for s in result.skipped]
    return result.instances, skipped


def saliency_config(args) -> SaliencyConfig:
    method = METHOD_ALIASES.get(args.method, args.method)
    return SaliencyConfig(method=method, ig_steps=args.ig_steps, summarizer=args.summarizer)


def out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _scored(instances: Sequence[RCInstance], answers: dict[str, str]) -> tuple[list[dict], dict]:
    """One row per instance (its answer, gold texts, exact match and F1), and
    the macro scores over all instances and per skill, averaged from the
    rows' scores."""
    rows = []
    groups: dict[str, list[tuple[bool, float]]] = {}
    for inst in instances:
        exact, f1 = score_answer(answers[inst.id], inst)
        rows.append({"id": inst.id, "prediction": answers[inst.id],
                     "gold": [a.text for a in inst.gold_answers], "exact_match": exact, "f1": f1})
        groups.setdefault(inst.skill, []).append((exact, f1))
    overall = macro_average((row["exact_match"], row["f1"]) for row in rows)
    per_skill = {}
    for skill in sorted(groups):
        result = macro_average(groups[skill])
        per_skill[skill] = {"n": result.n_instances, "exact_match": result.exact_match, "f1": result.f1}
    return rows, {"n_instances": len(instances), "exact_match": overall.exact_match,
                  "f1": overall.f1, "per_skill": per_skill}


def _scorable(args) -> tuple[list[RCInstance], list]:
    """load_instances, sorted by id, for a command that scores answers: a
    dataset with no usable instance is an input error naming the dataset."""
    instances, skipped = load_instances(args)
    if not instances:
        raise InputError(
            f"{args.dataset}: no usable instance to score; skipped records: {len(skipped)}"
        )
    return sorted(instances, key=lambda i: i.id), skipped


def run_evaluate(args) -> int:
    instances, skipped = _scorable(args)
    out = out_dir(args)
    answers: dict[str, str] = {}
    spans = []
    with build_gateway(args.model) as gateway:
        for inst in instances:
            span = predict(gateway, inst).predicted_span
            answers[inst.id] = span.text
            spans.append([span.token_start, span.token_end])
        model_id = gateway.model_id
    rows, scores = _scored(instances, answers)
    for row, span in zip(rows, spans):
        row["span"] = span
    write_jsonl(out / "predictions.jsonl", rows)
    write_json(out / "summary.json", {"dataset": args.dataset, "model_id": model_id,
                                      **scores, "skipped_records": skipped})
    lines = ["model,skill,n,exact_match,f1"]
    for skill, stats in scores["per_skill"].items():
        lines.append(f"{model_id},{skill},{stats['n']},{stats['exact_match']:.4f},{stats['f1']:.4f}")
    lines.append(f"{model_id},all,{len(instances)},{scores['exact_match']:.4f},{scores['f1']:.4f}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"evaluate: {len(instances)} instances, em={scores['exact_match']:.4f} f1={scores['f1']:.4f}")
    return 0


def run_saliency(args) -> int:
    instances, skipped = load_instances(args)
    config = saliency_config(args)
    out = out_dir(args)
    cache = SaliencyCache()
    with build_gateway(args.model) as gateway:
        for inst in sorted(instances, key=lambda i: i.id):
            cache.get_or_compute(gateway, inst, config)
        model_id = gateway.model_id
    cache.save(out / "saliency.jsonl")
    write_json(
        out / "saliency_summary.json",
        {
            "dataset": args.dataset,
            "model_id": model_id,
            "method": config.method,
            "summarizer": config.summarizer,
            "ig_steps": config.ig_steps,
            "config_hash": config.config_hash,
            "n_maps": len(instances),
            "skipped_records": skipped,
        },
    )
    print(f"saliency: wrote {len(instances)} maps ({config.method})")
    return 0


def _antonym_table(tag: str) -> AntonymTable:
    table = ANTONYM_TABLES.get(tag)
    if table is None:
        raise InputError(f"unknown antonym table {tag!r}; choose in_dist or ood")
    return table


def _comparison_pairs(
    instances: Sequence[RCInstance], table: AntonymTable
) -> tuple[list[CFPair], list[list]]:
    pairs: list[CFPair] = []
    skipped: list[list] = []
    for inst in sorted(instances, key=lambda i: i.id):
        if inst.skill != "comparison":
            skipped.append([inst.id, "not a comparison instance"])
            continue
        try:
            pairs.append(perturb_comparison(inst, table=table))
        except InputError as exc:
            skipped.append([inst.id, str(exc)])
    return pairs, skipped


def run_cf_generate(args) -> int:
    instances, skipped_records = load_instances(args)
    pairs, skipped = _comparison_pairs(instances, _antonym_table(args.antonyms))
    out = out_dir(args)
    save_cf_pairs(pairs, out / "cf_pairs.jsonl")
    write_json(
        out / "cf_report.json",
        {
            "dataset": args.dataset,
            "antonym_table": args.antonyms,
            "n_instances": len(instances),
            "n_pairs": len(pairs),
            "skipped": skipped,
            "skipped_records": skipped_records,
        },
    )
    print(f"cf-generate: {len(pairs)} pairs, {len(skipped)} skipped")
    return 0


def _coverage(report: AlignmentReport) -> dict:
    """How many of a report's pairs were audited, and why the rest were not
    (reasons without their leading instance id, with counts)."""
    reasons = Counter(reason.removeprefix(f"{iid}: ") for iid, reason in report.skipped)
    return {
        "n_pairs": len(report.records) + len(report.skipped),
        "n_audited": len(report.records),
        "n_skipped": len(report.skipped),
        "skip_reasons": dict(reasons),
    }


def run_align(args) -> int:
    instances, skipped_records = load_instances(args)
    table = _antonym_table(args.antonyms)
    config = saliency_config(args)
    out = out_dir(args)
    plan, cf_skipped = plan_audit(
        [i for i in instances if i.skill == "comparison"], lambda inst: inst,
        lambda inst: plan_antonym_swap(inst, table), lambda inst: perturb_comparison(inst, table=table),
    )
    plans = [plan, plan_pairs(load_cf_pairs(args.cf_file, instances))] if args.cf_file else [plan]

    cache_path = out / "saliency_cache.jsonl"
    cache = SaliencyCache.load(cache_path) if cache_path.exists() else SaliencyCache()
    n_loaded = len(cache)
    dataset_id = str(args.dataset)
    plans = [plan for plan in plans if plan.pairs or plan.skipped]
    if not plans:
        raise InputError("no counterfactual pairs to audit; need comparison "
                         "instances or --cf-file")
    for plan in plans:
        check_audit(plan, args.alpha, dataset_id)
    with build_gateway(args.model) as gateway:
        reports = [
            audit_alignment(gateway, plan, config, alpha=args.alpha, cache=cache,
                            dataset_id=dataset_id)
            for plan in plans
        ]
        model_id = gateway.model_id
    if len(cache) > n_loaded:  # a warm run leaves the file as it was
        cache.save(cache_path)

    records = sorted(
        (r for report in reports for r in report.records), key=lambda r: r.instance_id
    )
    coverages = [_coverage(report) for report in reports]
    write_jsonl(out / "alignment_records.jsonl", (record_to_dict(r) for r in records))
    (out / "alignment.csv").write_text(alignment_csv(reports), encoding="utf-8")
    write_json(
        out / "alignment.json",
        {
            "dataset": dataset_id,
            "model_id": model_id,
            "method": config.method,
            "alpha": args.alpha,
            "antonym_table": args.antonyms,
            "reports": [
                {
                    "reasoning_step": report.reasoning_step,
                    "score": report.score,
                    "n_records": len(report.records),
                    "n_aligned": sum(r.aligned for r in report.records),
                    "skipped": [list(s) for s in report.skipped],
                    **coverage,
                }
                for report, coverage in zip(reports, coverages)
            ],
            "cf_generation_skipped": cf_skipped,
            "skipped_records": skipped_records,
        },
    )
    for report, coverage in zip(reports, coverages):
        print(f"align: {report.reasoning_step} score={report.score:.4f} "
              f"(audited {coverage['n_audited']} of {coverage['n_pairs']} pairs)")
    return 0


def run_calibrate(args) -> int:
    instances, skipped = load_instances(args)
    config = saliency_config(args)
    check_calibration(len(instances), args.n_partitions, args.alpha)
    with build_gateway(args.model) as gateway:
        report = calibrate(
            instances,
            gateway,
            config,
            n_partitions=args.n_partitions,
            seed=args.seed,
            alpha=args.alpha,
        )
        model_id = gateway.model_id
    out = out_dir(args)
    write_json(
        out / "calibration.json",
        {
            "dataset": args.dataset,
            "model_id": model_id,
            "method": config.method,
            "n_instances": len(instances),
            "n_partitions": args.n_partitions,
            "rate": report.rate,
            "n_significant": report.n_significant,
            "n_draws": report.n_draws,
            "alpha": report.alpha,
            "seed": report.seed,
            "ci_low": report.ci_low,
            "ci_high": report.ci_high,
            "skipped_records": skipped,
        },
    )
    print(f"calibrate: rate={report.rate:.4f} on {report.n_draws} draws "
          f"(CI {report.ci_low:.4f}..{report.ci_high:.4f})")
    return 0


def run_heuristic(args) -> int:
    instances, skipped = _scorable(args)
    answers = {inst.id: heuristic_answer(inst, args.strategy) for inst in instances}
    rows, scores = _scored(instances, answers)
    out = out_dir(args)
    write_jsonl(out / "heuristic_predictions.jsonl", rows)
    write_json(out / "heuristic_summary.json", {"dataset": args.dataset, "strategy": args.strategy,
                                                **scores, "skipped_records": skipped})
    print(f"heuristic[{args.strategy}]: em={scores['exact_match']:.4f} f1={scores['f1']:.4f}")
    return 0


# The flags every command reads, and those a saliency map is made with.
_SHARED = ("dataset", "format", "context_mode", "seed", "out", "config")
_SALIENCY = ("model", "method", "summarizer", "ig_steps")
# One entry per command: its function, its help, and the flags it reads.
COMMANDS = {
    "evaluate": (run_evaluate, "answer accuracy report", _SHARED + ("model",)),
    "saliency": (run_saliency, "per-token attribution maps", _SHARED + _SALIENCY),
    "cf-generate": (run_cf_generate, "operator-swap counterfactual pairs",
                    _SHARED + ("antonyms",)),
    "align": (run_align, "explanation alignment audit",
              _SHARED + _SALIENCY + ("alpha", "antonyms", "cf_file")),
    "calibrate": (run_calibrate, "significance rate on random partitions",
                  _SHARED + _SALIENCY + ("alpha", "n_partitions")),
    "heuristic": (run_heuristic, "non-reading baseline answers", _SHARED + ("strategy",)),
}


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def read_command_line(argv: Sequence[str]) -> SimpleNamespace:
    """`[--config PATH] COMMAND` and then the command's flags, read from the
    tables (`read_options`) into the namespace argparse would give: each
    flag the command takes, at its default, its value in the last --config
    or its value on the line, and `command` and `func`. As with argparse, a
    --config before the command gives defaults only: `args.config` is set
    by one after it. A line with no command, an unknown command or tokens
    left unread raises UsageExit, as does the reading of the flags."""
    head, unread = read_options(argv, {"--config": ("config", str)}, "command")
    if "command" not in head:
        raise UsageExit("the following arguments are required: command")
    command, *body = head["command"]
    if command not in COMMANDS:
        raise UsageExit(f"argument command: invalid choice: {command!r} "
                        f"(choose from {', '.join(map(repr, COMMANDS))})")
    func, _, flags = COMMANDS[command]
    try:
        given, left = read_options(body, {_option(dest): (dest, FLAGS[dest][0]) for dest in flags})
    except UsageExit as exc:
        exc.command = command
        raise
    if unread + left:
        raise UsageExit(f"unrecognized arguments: {' '.join(unread + left)}")
    config = given.get("config", head.get("config"))
    defaults = read_config(config) if config else {}
    values = {dest: defaults.get(dest, FLAGS[dest][1]) for dest in flags}
    return SimpleNamespace(command=command, func=func, **{**values, **given})


def _usage_exit(exc: UsageExit) -> int:
    """The help of `rcaudit` or of the command that `exc` names, or the
    refusal, from the tables; the exit code."""
    command = exc.command
    taken = ("config",) if command is None else COMMANDS[command][2]
    options = {f"{_option(dest)} {dest.upper()}": FLAGS[dest][2] for dest in FLAGS if dest in taken}
    usage = " ".join(f"[{term}]" for term in options)
    if command is not None:
        return usage_exit(exc, f"rcaudit {command}", usage, COMMANDS[command][1],
                          {"options": options})
    return usage_exit(exc, "rcaudit", f"{usage} {{{','.join(COMMANDS)}}} ...",
                      "Audit whether extractive QA models answer for the right reasons.",
                      {"commands": {name: text for name, (_, text, _) in COMMANDS.items()},
                       "options": options})


def main(argv: Sequence[str] | None = None) -> int:
    # A command's data holds no reference cycles: reference counting frees all
    # of it, and the cycle collector would only walk the live heap for nothing.
    # It is off while the command runs and put back as it was found.
    argv = list(sys.argv[1:] if argv is None else argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = read_command_line(argv)
        return args.func(args)
    except UsageExit as exc:
        return _usage_exit(exc)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

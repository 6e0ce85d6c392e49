#!/usr/bin/env python3
"""Regenerate tests/data/heuristic_expected.json.

Snapshot of every selection strategy's answers on the bundled corpus, with
macro scores, so regressions in sentence selection or phrase extraction
show up as concrete answer diffs.
"""

from __future__ import annotations

import json
from pathlib import Path

from rcaudit.corpus.schema import load_jsonl
from rcaudit.data import fixture_corpus_path
from rcaudit.heuristic import SELECTION_STRATEGIES, heuristic_answer
from rcaudit.metrics import evaluate_dataset

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "heuristic_expected.json"


def main() -> None:
    instances = load_jsonl(fixture_corpus_path())
    doc: dict = {"strategies": {}}
    for strategy in SELECTION_STRATEGIES:
        answers = {inst.id: heuristic_answer(inst, strategy) for inst in instances}
        result = evaluate_dataset(answers, instances)
        doc["strategies"][strategy] = {
            "answers": dict(sorted(answers.items())),
            "exact_match": result.exact_match,
            "f1": round(result.f1, 10),
        }
    OUT.write_text(json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8")
    for strategy, block in doc["strategies"].items():
        print(f"{strategy}: em={block['exact_match']:.2f} f1={block['f1']:.4f}")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()

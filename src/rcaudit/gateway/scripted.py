"""Replayable gateway driven by a JSON script of answers and sensitivities.

The script pins, per instance id, the answered span and how much the start
probability at that span drops when a given word is masked. This makes
occlusion scores fully controllable, which is what end-to-end audit
fixtures need: alignment outcomes can be engineered exactly instead of
hoping a trained model behaves a certain way.

Script layout:

    {"name": "demo",
     "instances": {
       "some-id": {"answer": [start, end],
                   "base": 0.9,
                   "sensitivity": [s_0, ..., s_{n_words-1}]}}}

`sensitivity` has one entry per word, question words first then context
words; masking word k lowers the start probability at `answer[0]` by s_k.
`base` (default 0.9) and `sensitivity` are optional. Each entry is checked
when the script is read: `answer` holds two integers, start no greater than
end and neither negative, `base` is a number in [0, 1] and `sensitivity` a
list of numbers (a boolean is neither). An entry that does not fit its
instance (an answer past the context, a sensitivity of another length than
the instance's words) is an InputError naming the entry.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import GatewayError, InputError
from ..types import RCInstance
from .base import ModelGateway, ModelOutput, answer_span


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float


def _entry_fault(entry) -> str | None:
    """What is wrong with a script entry's fields, or None."""
    if not isinstance(entry, dict):
        return f"an entry is an object, not {entry!r}"
    answer = entry.get("answer")
    if not (
        type(answer) is list and len(answer) == 2 and all(type(i) is int for i in answer)
    ):
        return f"answer must be two integers, not {answer!r}"
    if not 0 <= answer[0] <= answer[1]:
        return f"answer must be a start and an end with 0 <= start <= end, not {answer!r}"
    base = entry.get("base", 0.9)
    if not (_is_number(base) and 0 <= base <= 1):
        return f"base must be a number in [0, 1], not {base!r}"
    sensitivity = entry.get("sensitivity", [])
    if type(sensitivity) is not list or not all(map(_is_number, sensitivity)):
        return f"sensitivity must be a list of numbers, not {sensitivity!r}"
    return None


class ScriptedModel(ModelGateway):
    def __init__(self, script_path: str | Path) -> None:
        path = Path(script_path)
        if not path.exists():
            raise InputError(f"scripted model file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("instances"), dict):
            raise InputError(f"{path}: a script is an object with an 'instances' object")
        self._path = path
        self._name = doc.get("name", path.stem)
        self._instances: dict[str, dict] = doc["instances"]
        for iid, entry in self._instances.items():
            fault = _entry_fault(entry)
            if fault:
                raise InputError(f"{path}: entry for {iid!r}: {fault}")

    @property
    def model_id(self) -> str:
        return f"scripted:{self._name}"

    def _spread(self, n: int, peak: float, position: int) -> np.ndarray:
        scores = np.full(n, (1.0 - peak) / (n - 1)) if n > 1 else np.zeros(1)
        scores[position] = peak if n > 1 else 1.0
        return scores

    def predict(self, instance: RCInstance) -> ModelOutput:
        entry = self._instances.get(instance.id)
        if entry is None:
            raise GatewayError(f"no script entry for instance {instance.id!r}")
        tok_start, tok_end = entry["answer"]
        n = instance.n_context
        fault = f"{self._path}: entry for {instance.id!r}:"
        if tok_end >= n:
            raise InputError(f"{fault} answer {entry['answer']!r} lies past the {n} context words")
        base = float(entry.get("base", 0.9))
        sensitivity = entry.get("sensitivity")
        words = instance.question_words + instance.context_words
        drop = 0.0
        if sensitivity is not None:
            if len(sensitivity) != len(words):
                raise InputError(
                    f"{fault} sensitivity length {len(sensitivity)} is not the "
                    f"instance's {len(words)} words"
                )
            drop = sum(
                float(sensitivity[i])
                for i, word in enumerate(words)
                if word == self.baseline_token
            )
        peak = min(max(base - drop, 0.01), 0.99)
        return ModelOutput(
            start_scores=self._spread(n, peak, tok_start),
            end_scores=self._spread(n, base, tok_end),
            predicted_span=answer_span(instance, tok_start, tok_end),
        )

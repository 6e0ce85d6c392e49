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
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import GatewayError, InputError
from ..types import RCInstance
from .base import ModelGateway, ModelOutput, answer_span


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
        self._name = doc.get("name", path.stem)
        self._instances: dict[str, dict] = doc["instances"]

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
        base = float(entry.get("base", 0.9))
        sensitivity = entry.get("sensitivity")
        words = instance.question_words + instance.context_words
        drop = 0.0
        if sensitivity is not None:
            if len(sensitivity) != len(words):
                raise GatewayError(
                    f"{instance.id}: script sensitivity length {len(sensitivity)} "
                    f"does not match {len(words)} words"
                )
            drop = sum(
                float(sensitivity[i])
                for i, word in enumerate(words)
                if word == self.baseline_token
            )
        peak = min(max(base - drop, 0.01), 0.99)
        n = instance.n_context
        return ModelOutput(
            start_scores=self._spread(n, peak, tok_start),
            end_scores=self._spread(n, base, tok_end),
            predicted_span=answer_span(instance, tok_start, tok_end),
        )

"""Degenerate reference gateways used by audits and tests.

These models bracket the behaviors the audit must distinguish: an oracle
that always answers correctly, and a shortcut model that ignores the
question entirely and returns the most frequent capitalized name in the
context (the kind of heuristic a counterfactual check is designed to
catch: it cannot answer both members of a well-built pair correctly).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..text import capitalized_runs
from ..types import RCInstance
from .base import ModelGateway, ModelOutput, answer_span


def _one_hot_output(instance: RCInstance, token_start: int, token_end: int) -> ModelOutput:
    n = instance.n_context
    start = np.zeros(n)
    end = np.zeros(n)
    start[token_start] = 1.0
    end[token_end] = 1.0
    return ModelOutput(
        start_scores=start,
        end_scores=end,
        predicted_span=answer_span(instance, token_start, token_end),
    )


class GoldOracleModel(ModelGateway):
    """Always returns the first gold answer span with full confidence."""

    @property
    def model_id(self) -> str:
        return "oracle"

    def predict(self, instance: RCInstance) -> ModelOutput:
        gold = instance.gold_answers[0]
        return _one_hot_output(instance, gold.token_start, gold.token_end)


class FrequencyBaselineModel(ModelGateway):
    """Returns the capitalized context run whose surface occurs most often.

    Ties break toward the earliest first occurrence. Contexts without any
    capitalized run fall back to the first context word.
    """

    @property
    def model_id(self) -> str:
        return "frequency"

    def predict(self, instance: RCInstance) -> ModelOutput:
        counts: Counter[str] = Counter()
        first_span: dict[str, tuple[int, int]] = {}
        for s_idx, sent in enumerate(instance.context):
            base = instance.sentence_offsets[s_idx]
            for lo, hi in capitalized_runs(sent.words):
                surface = " ".join(sent.words[lo : hi + 1]).casefold()
                counts[surface] += 1
                first_span.setdefault(surface, (base + lo, base + hi))
        if not counts:
            return _one_hot_output(instance, 0, 0)
        best = max(counts, key=lambda s: (counts[s], -first_span[s][0]))
        lo, hi = first_span[best]
        return _one_hot_output(instance, lo, hi)

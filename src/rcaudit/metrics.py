"""Extractive-QA answer metrics: normalization, token F1, and exact match.

Normalization follows the de-facto extractive-QA convention: lowercase,
strip punctuation, drop the articles a/an/the, collapse whitespace. F1 uses
bag-of-token (multiset) overlap so repeated tokens are not double-credited;
with several gold answers the best-scoring one counts.

`score_answer` scores a prediction against an instance's gold answers;
every answer score in the package comes from it. `macro_average` averages
such scores; `evaluate_dataset` and the `evaluate` and `heuristic` reports
average through it.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .types import EvalResult, RCInstance

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_RE = re.compile(f"[{re.escape(string.punctuation)}]")


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    text = _ARTICLE_RE.sub(" ", _PUNCT_RE.sub("", text.lower()))
    return " ".join(text.split())


def _best_f1(pred: str, golds: Sequence[str]) -> float:
    """Best bag-of-token F1 of a normalized prediction against normalized
    gold answers."""
    pred_tokens = Counter(pred.split())
    best = 0.0
    for gold in golds:
        if not pred and not gold:
            best = max(best, 1.0)
            continue
        gold_tokens = Counter(gold.split())
        overlap = sum((pred_tokens & gold_tokens).values())
        if overlap == 0:
            continue
        precision = overlap / sum(pred_tokens.values())
        recall = overlap / sum(gold_tokens.values())
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def token_f1(predicted: str, gold_answers: Sequence[str]) -> float:
    """Best bag-of-token F1 of the prediction against any gold answer."""
    if not gold_answers:
        raise InputError("token_f1 requires at least one gold answer")
    return _best_f1(normalize_answer(predicted), [normalize_answer(g) for g in gold_answers])


def exact_match(predicted: str, gold_answers: Sequence[str]) -> bool:
    """True iff the normalized prediction equals any normalized gold answer."""
    if not gold_answers:
        raise InputError("exact_match requires at least one gold answer")
    pred = normalize_answer(predicted)
    return any(pred == normalize_answer(g) for g in gold_answers)


def score_answer(prediction: str, instance: RCInstance) -> tuple[bool, float]:
    """Exact match and best token F1 of a prediction against the instance's
    gold answers, each text normalized once."""
    golds = [normalize_answer(a.text) for a in instance.gold_answers]
    if not golds:
        raise InputError(f"{instance.id}: no gold answers")
    pred = normalize_answer(prediction)
    return pred in golds, _best_f1(pred, golds)


def macro_average(scores: Iterable[tuple[bool, float]]) -> EvalResult:
    """Mean exact match and F1 over (exact match, F1) scores, summed in order.

    Raises InputError when there are no scores.
    """
    f1_total = 0.0
    em_total = 0
    n = 0
    for exact, f1 in scores:
        f1_total += f1
        em_total += exact
        n += 1
    if n == 0:
        raise InputError("evaluate_dataset requires at least one instance")
    return EvalResult(f1=f1_total / n, exact_match=em_total / n, n_instances=n)


def evaluate_dataset(
    predictions: Mapping[str, str], instances: Iterable[RCInstance]
) -> EvalResult:
    """Macro-average token F1 and exact match over a dataset.

    Raises InputError when the instance list is empty or any instance id is
    missing from `predictions`.
    """

    def scores():
        for instance in instances:
            if instance.id not in predictions:
                raise InputError(f"no prediction for instance {instance.id!r}")
            yield score_answer(predictions[instance.id], instance)

    return macro_average(scores())

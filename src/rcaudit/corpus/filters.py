"""Skill-subset filters: comparative questions and answer-in-cluster coreference."""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from ..metrics import normalize_answer
from ..text import find_token_run, words
from ..types import QuestionAnnotations, RCInstance


# The in-distribution comparative operators, each with its in-distribution
# antonym: the comparison filter, the synthetic generator and the
# in-distribution antonym table all read this one list.
OPERATOR_ANTONYMS = (
    ("earlier", "later"),
    ("later", "earlier"),
    ("first", "later"),
    ("more recently", "earlier"),
    ("older", "younger"),
    ("younger", "older"),
)


def match_operator(instance: RCInstance) -> frozenset[int] | None:
    """Question token indices of the longest operator present, if any."""
    best: frozenset[int] | None = None
    best_len = 0
    for surface, _ in OPERATOR_ANTONYMS:
        needle = words(surface)
        if len(needle) <= best_len:
            continue
        hit = find_token_run(instance.question_words, needle)
        if hit is not None:
            best = frozenset(range(hit, hit + len(needle)))
            best_len = len(needle)
    return best


def filter_comparison(instances: Iterable[RCInstance]) -> list[RCInstance]:
    """Keep questions containing a comparative operator; mark skill and operator."""
    kept = []
    for instance in instances:
        operator = match_operator(instance)
        if operator is None:
            continue
        base = instance.annotations or QuestionAnnotations()
        kept.append(
            replace(
                instance,
                skill="comparison",
                annotations=replace(base, comparison_operator=operator),
            )
        )
    return kept


def filter_coref_answer_in_cluster(instances: Iterable[RCInstance]) -> list[RCInstance]:
    """Keep instances whose own coreference clusters hold the answer.

    The first cluster holding a mention that normalizes to a gold answer is
    recorded as relevant and the instance is marked with the coreference
    skill.
    """
    kept = []
    for instance in instances:
        golds = {normalize_answer(a.text) for a in instance.gold_answers}
        relevant = None
        for c_idx, cluster in enumerate(instance.coref_clusters):
            if any(normalize_answer(m.text) in golds for m in cluster):
                relevant = c_idx
                break
        if relevant is None:
            continue
        kept.append(replace(instance, skill="coreference", relevant_cluster=relevant))
    return kept

"""Positive/negative token partitions encoding expected reasoning steps.

A partition names the tokens a model following the expected reasoning
process should rely on (positive) and a disjoint set it should not
(negative). Comparison questions partition the question words around the
comparative operator; coreference questions partition the context words
around the relevant mention cluster. Random partitions of matching sizes
provide the calibration null.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .types import RCInstance, Scope

SKILL_STEPS = ("comparison_operation", "coreference_resolution", "random")
# Fewest indices on either side of a partition that the Welch test can judge.
MIN_SIDE = 2


@dataclass(frozen=True)
class TokenPartition:
    instance_id: str
    scope: Scope
    positive: frozenset[int]
    negative: frozenset[int]
    skill_step: str

    def __post_init__(self) -> None:
        if self.skill_step not in SKILL_STEPS:
            raise InputError(f"unknown skill step {self.skill_step!r}")
        if not self.positive or not self.negative:
            raise InputError(f"{self.instance_id}: partition sides must be non-empty")
        if self.positive & self.negative:
            raise InputError(f"{self.instance_id}: partition sides overlap")


def scope_size(instance: RCInstance, scope: Scope) -> int:
    if scope == "question_tokens":
        return instance.n_question
    if scope == "context_tokens":
        return instance.n_context
    raise InputError(f"partitions need a question or context scope, not {scope!r}")


def check_bounds(partition: TokenPartition, instance: RCInstance) -> TokenPartition:
    n = scope_size(instance, partition.scope)
    for idx in partition.positive | partition.negative:
        if not 0 <= idx < n:
            raise InputError(f"{instance.id}: partition index {idx} outside {partition.scope}")
    return partition


def _comparison_exclusions(instance: RCInstance) -> tuple[frozenset[int], set[int]]:
    """The checks a comparison partition makes before its negative side, then
    its positive side and the question indices its negative side leaves out
    besides commas."""
    if instance.skill != "comparison":
        raise InputError(f"{instance.id}: comparison partition needs the comparison skill")
    ann = instance.annotations
    if ann is None or not ann.comparison_operator:
        raise InputError(f"{instance.id}: missing operator annotation")
    if instance.unannotatable:
        raise InputError(f"{instance.id}: flagged un-annotatable")
    excluded: set[int] = set(ann.comparison_operator)
    for entity in ann.compared_entities:
        excluded |= entity
    excluded |= ann.value_tokens
    excluded |= ann.verb_tokens
    return ann.comparison_operator, excluded


def build_comparison_partition(instance: RCInstance) -> TokenPartition:
    """Question-scope partition: operator words against filler words.

    Negative = question words minus the operator, the compared entities,
    value words, verb words, and commas (commas belong to neither side;
    other punctuation such as the question mark stays negative).
    """
    positive, excluded = _comparison_exclusions(instance)
    negative = frozenset(
        i for i, word in enumerate(instance.question_words) if i not in excluded and word != ","
    )
    if not negative:
        raise InputError(f"{instance.id}: comparison partition has an empty negative side")
    return check_bounds(
        TokenPartition(
            instance_id=instance.id,
            scope="question_tokens",
            positive=frozenset(positive),
            negative=negative,
            skill_step="comparison_operation",
        ),
        instance,
    )


def comparison_side_sizes(instance: RCInstance) -> tuple[int, int]:
    """The sizes of `build_comparison_partition`'s positive and negative
    sides, counted without building either; raises what the build would."""
    positive, excluded = _comparison_exclusions(instance)
    words = instance.question_words
    n = len(words)
    n_negative = n - words.count(",") - sum(1 for i in excluded if 0 <= i < n and words[i] != ",")
    if not n_negative:
        raise InputError(f"{instance.id}: comparison partition has an empty negative side")
    if min(positive) < 0 or max(positive) >= n:
        build_comparison_partition(instance)  # raises check_bounds' error, naming its index
    return len(positive), n_negative


def build_coref_partition(instance: RCInstance) -> TokenPartition:
    """Context-scope partition: cluster mention words against the rest.

    Negative excludes (besides the cluster itself) context words whose
    casefolded text also appears among the question words, since those are
    legitimately useful to any model regardless of coreference reasoning.
    """
    if instance.skill != "coreference":
        raise InputError(f"{instance.id}: coreference partition needs the coreference skill")
    cluster_idx = instance.relevant_cluster
    if cluster_idx is None or not 0 <= cluster_idx < len(instance.coref_clusters):
        raise InputError(f"{instance.id}: no relevant coreference cluster recorded")
    positive: set[int] = set()
    for mention in instance.coref_clusters[cluster_idx]:
        positive.update(range(mention.token_start, mention.token_end + 1))
    question_words = {word.casefold() for word in instance.question_words}
    negative = frozenset(
        i
        for i, word in enumerate(instance.context_words)
        if i not in positive and word.casefold() not in question_words
    )
    if not positive:
        raise InputError(f"{instance.id}: coreference partition has an empty positive side")
    if not negative:
        raise InputError(f"{instance.id}: coreference partition has an empty negative side")
    return check_bounds(
        TokenPartition(
            instance_id=instance.id,
            scope="context_tokens",
            positive=frozenset(positive),
            negative=negative,
            skill_step="coreference_resolution",
        ),
        instance,
    )


def build_skill_partition(instance: RCInstance) -> TokenPartition:
    if instance.skill == "comparison":
        return build_comparison_partition(instance)
    if instance.skill == "coreference":
        return build_coref_partition(instance)
    raise InputError(f"{instance.id}: no partition defined for skill {instance.skill!r}")


def random_sizes(instance: RCInstance) -> tuple[Scope, int, int, int]:
    """The scope a random partition of `instance` is drawn in, its number of
    words, and the sizes of the two sides: the instance's own
    skill-partition sizes, so that calibration draws are size-matched, or a
    MIN_SIDE / rest split for an instance without a usable skill partition;
    a size below MIN_SIDE is clamped up to it."""
    scope: Scope = "context_tokens" if instance.skill == "coreference" else "question_tokens"
    n = scope_size(instance, scope)
    try:
        skill = build_skill_partition(instance)
        pos_size, neg_size = len(skill.positive), len(skill.negative)
    except InputError:
        pos_size, neg_size = MIN_SIDE, n - MIN_SIDE
    return scope, n, max(MIN_SIDE, pos_size), max(MIN_SIDE, neg_size)


def random_partition(
    instance: RCInstance, seed: int, sizes: tuple[Scope, int, int, int] | None = None
) -> TokenPartition:
    """Uniform disjoint index sets of `random_sizes(instance)` (or `sizes`,
    its value, for a caller that draws from one instance many times) in the
    instance's skill scope; seeded."""
    scope, n, pos_size, neg_size = sizes or random_sizes(instance)
    if pos_size + neg_size > n:
        raise InputError(
            f"{instance.id}: cannot draw {pos_size}+{neg_size} indices from {n} {scope}"
        )
    rng = np.random.default_rng(seed)
    drawn = rng.permutation(n)[: pos_size + neg_size].tolist()
    return TokenPartition(
        instance_id=instance.id,
        scope=scope,
        positive=frozenset(drawn[:pos_size]),
        negative=frozenset(drawn[pos_size:]),
        skill_step="random",
    )


def seed_for(global_seed: int, instance_id: str, draw: int = 0) -> int:
    """Stable per-instance RNG seed derived from the global seed."""
    digest = hashlib.sha256(f"{global_seed}\x00{instance_id}\x00{draw}".encode()).digest()
    return int.from_bytes(digest[:8], "big")

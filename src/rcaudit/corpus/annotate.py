"""Automatic question annotation for the comparison skill.

Fills the compared-entity, value, and verb token sets that partition
building and counterfactual generation consume. Entities and verbs are
found by deterministic rules: capitalized question runs that recur in the
context, and a verb wordlist. It runs only inside the synthetic corpus
generator and the fixture generator (tools/gen_fixtures.py); a loaded
dataset is not annotated, so a unified file carries its own annotations.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import InputError
from ..text import capitalized_runs, find_token_run
from ..types import QuestionAnnotations, RCInstance

_LEADING_STOPWORDS = frozenset({"the", "a", "an"})


def surface_entity_matcher(instance: RCInstance) -> list[frozenset[int]]:
    """Capitalized question runs that also occur verbatim in the context.

    Runs are maximal; a run that is not found in the context is retried
    without its leading article before being given up on.
    """
    entities: list[frozenset[int]] = []
    for start, end in capitalized_runs(instance.question_words):
        surface = instance.question_words[start : end + 1]
        while surface:
            if find_token_run(instance.context_words, surface) is not None:
                first = end - len(surface) + 1
                entities.append(frozenset(range(first, end + 1)))
                break
            if surface[0].casefold() in _LEADING_STOPWORDS:
                surface = surface[1:]
            else:
                break
    return entities


# Only forms that are rarely nouns: ambiguous bases like "film", "record",
# "play", or "star" would swallow noun tokens in questions.
_VERB_WORDS = frozenset(
    """am is are was were be been being has have had do does did come came comes
    go goes went gone released directed filmed wrote written starred premiered
    opened published founded established formed won recorded born lived died
    began started ended made played appeared debuted occurred happened""".split()
)

_PARTICLES = frozenset({"out", "up", "off", "on"})


def rule_verb_tagger(instance: RCInstance) -> frozenset[int]:
    """Wordlist verb tagging plus the trailing particle of phrasal verbs."""
    tagged: set[int] = set()
    for i, word in enumerate(instance.question_words):
        low = word.casefold()
        if low in _VERB_WORDS:
            tagged.add(i)
        elif low in _PARTICLES and (i - 1) in tagged:
            tagged.add(i)
    return frozenset(tagged)


def value_token_indices(instance: RCInstance) -> frozenset[int]:
    """Digit-bearing question tokens (years, counts, ordinals like 2nd)."""
    return frozenset(
        i for i, word in enumerate(instance.question_words) if any(ch.isdigit() for ch in word)
    )


def annotate_question(instance: RCInstance) -> RCInstance:
    """Fill compared entities, value tokens, and verb tokens on a comparison
    instance, keeping all annotation sets disjoint (operator wins, then
    entities, then values, then verbs). Instances with fewer than two
    detected entities are flagged un-annotatable but kept."""
    if instance.skill != "comparison":
        raise InputError(f"{instance.id}: annotate_question requires the comparison skill")
    ann = instance.annotations or QuestionAnnotations()
    claimed: set[int] = set(ann.comparison_operator)
    entities: list[frozenset[int]] = []
    for entity in surface_entity_matcher(instance):
        entity = frozenset(entity - claimed)
        if entity:
            entities.append(entity)
            claimed |= entity
    values = value_token_indices(instance) - claimed
    claimed |= values
    verbs = rule_verb_tagger(instance) - claimed
    return replace(
        instance,
        annotations=replace(
            ann,
            compared_entities=tuple(entities),
            value_tokens=frozenset(values),
            verb_tokens=verbs,
        ),
        unannotatable=len(entities) < 2,
    )

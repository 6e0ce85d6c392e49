"""Word-level input perturbation: replace words with a model's mask token.

Word positions use the combined ordering the saliency engine works in:
question words 0..n_q-1 first, then the flattened context words. Masking
never changes token counts (a word is swapped for one mask word), so all
token indices, partitions, and answer spans stay valid; span texts are
recomputed against the edited surface.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import InputError
from .text import spaced_starts
from .types import AnswerSpan, RCInstance, Sentence


def _rebuilt_sentence(sent: Sentence, words: list[str]) -> Sentence:
    """`sent` with its words replaced by `words`, single-spaced."""
    return Sentence(
        tuple(words),
        spaced_starts(words),
        is_supporting_fact=sent.is_supporting_fact,
        paragraph_id=sent.paragraph_id,
    )


def _with_question(instance: RCInstance, words: list[str]) -> RCInstance:
    """`instance` asking the single-spaced question `words`."""
    return replace(
        instance,
        question_words=tuple(words),
        question_starts=spaced_starts(words),
        question_text=" ".join(words),
    )


def _refresh_spans(instance: RCInstance) -> RCInstance:
    def fix(span: AnswerSpan) -> AnswerSpan:
        return replace(span, text=instance.span_surface(span.token_start, span.token_end))

    return replace(
        instance,
        gold_answers=tuple(fix(a) for a in instance.gold_answers),
        coref_clusters=tuple(tuple(fix(m) for m in c) for c in instance.coref_clusters),
    )


def mask_word(instance: RCInstance, position: int, mask_token: str = "[MASK]") -> RCInstance:
    """Replace one word (combined question-then-context position) with the mask."""
    n_q = instance.n_question
    if not 0 <= position < n_q + instance.n_context:
        raise InputError(f"{instance.id}: word position {position} out of range")
    if position < n_q:
        words = list(instance.question_words)
        words[position] = mask_token
        return _with_question(instance, words)
    flat = position - n_q
    s_idx = instance.sentence_of(flat)
    local = flat - instance.sentence_offsets[s_idx]
    sent = instance.context[s_idx]
    words = list(sent.words)
    words[local] = mask_token
    context = list(instance.context)
    context[s_idx] = _rebuilt_sentence(sent, words)
    return _refresh_spans(replace(instance, context=tuple(context)))


def mask_all(instance: RCInstance, mask_token: str) -> RCInstance:
    """Replace every question and context word with the mask token."""
    context = tuple(
        _rebuilt_sentence(sent, [mask_token] * len(sent.words)) for sent in instance.context
    )
    masked = _with_question(instance, [mask_token] * instance.n_question)
    return _refresh_spans(replace(masked, context=context))

"""Core domain types: tokens, sentences, instances, and evaluation results.

Conventions used throughout the toolkit:

- Question tokens are indexed 0..n-1 within the question; their character
  offsets point into the question text.
- Context tokens are indexed 0..n-1 within their own sentence; character
  offsets point into the sentence text. Operations that need a single
  context-wide index use the *flattened* ordering (sentence 0 tokens,
  then sentence 1 tokens, ...), which is what AnswerSpan and coreference
  mention spans store.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .errors import InputError

Skill = Literal["comparison", "coreference", "other"]
Scope = Literal["question_tokens", "context_tokens", "all"]

SKILLS = ("comparison", "coreference", "other")


@dataclass(frozen=True)
class Token:
    text: str
    index: int
    char_start: int
    char_end: int


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    is_supporting_fact: bool = False
    paragraph_id: str = "0"

    @cached_property
    def text(self) -> str:
        """Sentence surface reconstructed from token offsets."""
        return render_tokens(self.tokens)


@dataclass(frozen=True)
class AnswerSpan:
    """A context span; token_start/token_end are inclusive flattened indices."""

    text: str
    sentence_index: int
    token_start: int
    token_end: int


@dataclass(frozen=True)
class QuestionAnnotations:
    """Disjoint question-token index sets used by partition building and CFs."""

    comparison_operator: frozenset[int] = frozenset()
    compared_entities: tuple[frozenset[int], ...] = ()
    value_tokens: frozenset[int] = frozenset()
    verb_tokens: frozenset[int] = frozenset()

    def all_sets(self) -> list[frozenset[int]]:
        return [
            self.comparison_operator,
            *self.compared_entities,
            self.value_tokens,
            self.verb_tokens,
        ]


@dataclass(frozen=True)
class RCInstance:
    id: str
    question: tuple[Token, ...]
    question_text: str
    context: tuple[Sentence, ...]
    gold_answers: tuple[AnswerSpan, ...]
    skill: Skill = "other"
    annotations: QuestionAnnotations | None = None
    coref_clusters: tuple[tuple[AnswerSpan, ...], ...] = ()
    relevant_cluster: int | None = None
    unannotatable: bool = False

    @cached_property
    def context_tokens(self) -> tuple[Token, ...]:
        return tuple(tok for sent in self.context for tok in sent.tokens)

    @cached_property
    def sentence_offsets(self) -> tuple[int, ...]:
        """Flattened index of the first token of each sentence."""
        offsets, total = [], 0
        for sent in self.context:
            offsets.append(total)
            total += len(sent.tokens)
        return tuple(offsets)

    @property
    def n_question(self) -> int:
        return len(self.question)

    @property
    def n_context(self) -> int:
        return len(self.context_tokens)

    def sentence_of(self, flat_index: int) -> int:
        """Sentence index containing the flattened context token index."""
        if flat_index < 0 or flat_index >= self.n_context:
            raise InputError(f"{self.id}: context index {flat_index} out of range")
        sent = 0
        for i, off in enumerate(self.sentence_offsets):
            if off <= flat_index:
                sent = i
        return sent

    def span_surface(self, token_start: int, token_end: int) -> str:
        """Context surface text covered by an inclusive flattened token range."""
        sent_idx = self.sentence_of(token_start)
        if self.sentence_of(token_end) != sent_idx:
            raise InputError(f"{self.id}: span crosses sentence boundary")
        off = self.sentence_offsets[sent_idx]
        sent = self.context[sent_idx]
        first = sent.tokens[token_start - off]
        last = sent.tokens[token_end - off]
        return sent.text[first.char_start : last.char_end]


@dataclass(frozen=True)
class EvalResult:
    f1: float
    exact_match: float
    n_instances: int


def render_tokens(tokens: tuple[Token, ...]) -> str:
    """Rebuild the source string of a token sequence from character offsets."""
    parts: list[str] = []
    pos = 0
    for tok in tokens:
        if tok.char_start < pos:
            raise InputError(f"overlapping token offsets at index {tok.index}")
        parts.append(" " * (tok.char_start - pos))
        parts.append(tok.text)
        pos = tok.char_end
    return "".join(parts)


def _check_token_sequence(tokens: tuple[Token, ...], source: str | None, what: str) -> None:
    pos = 0
    for i, tok in enumerate(tokens):
        if tok.index != i:
            raise InputError(f"{what}: token index {tok.index} at position {i}")
        if tok.char_start >= tok.char_end:
            raise InputError(f"{what}: empty char range for token {i}")
        if tok.char_start < pos:
            raise InputError(f"{what}: overlapping char offsets at token {i}")
        if len(tok.text) != tok.char_end - tok.char_start:
            raise InputError(f"{what}: text length mismatch at token {i}")
        if source is not None and source[tok.char_start : tok.char_end] != tok.text:
            raise InputError(f"{what}: token {i} does not match source text")
        pos = tok.char_end


def validate_instance(instance: RCInstance) -> RCInstance:
    """Check all structural invariants; returns the instance for chaining."""
    _check_token_sequence(instance.question, instance.question_text, f"{instance.id} question")
    for s_idx, sent in enumerate(instance.context):
        if not sent.tokens:
            raise InputError(f"{instance.id}: sentence {s_idx} is empty")
        _check_token_sequence(sent.tokens, None, f"{instance.id} sentence {s_idx}")
    if not instance.gold_answers:
        raise InputError(f"{instance.id}: no gold answers")
    n_ctx = instance.n_context
    for span in instance.gold_answers + tuple(m for cl in instance.coref_clusters for m in cl):
        if not (0 <= span.token_start <= span.token_end < n_ctx):
            raise InputError(f"{instance.id}: span {span.token_start}..{span.token_end} out of range")
        if instance.sentence_of(span.token_start) != span.sentence_index:
            raise InputError(f"{instance.id}: span sentence index mismatch")
        if instance.span_surface(span.token_start, span.token_end) != span.text:
            raise InputError(f"{instance.id}: span text {span.text!r} does not match context")
    if instance.skill not in SKILLS:
        raise InputError(f"{instance.id}: unknown skill {instance.skill!r}")
    ann = instance.annotations
    if instance.skill == "comparison":
        if ann is None or not ann.comparison_operator:
            raise InputError(f"{instance.id}: comparison instance lacks operator annotation")
    if ann is not None:
        sets = ann.all_sets()
        for idx_set in sets:
            for idx in idx_set:
                if not (0 <= idx < instance.n_question):
                    raise InputError(f"{instance.id}: annotation index {idx} out of range")
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j]:
                    raise InputError(f"{instance.id}: annotation sets overlap")
    if instance.relevant_cluster is not None and not (
        0 <= instance.relevant_cluster < len(instance.coref_clusters)
    ):
        raise InputError(f"{instance.id}: relevant_cluster index out of range")
    return instance

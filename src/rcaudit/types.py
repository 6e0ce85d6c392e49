"""Core domain types: sentences, instances, and evaluation results.

Conventions used throughout the toolkit:

- A question and each context sentence are held as a tuple of words plus a
  tuple of each word's start offset; a word ends at its start plus its
  length. Question offsets point into the question text, sentence offsets
  into the sentence text.
- Question words are indexed 0..n-1 within the question, and context words
  0..n-1 within their own sentence. Operations that need a single
  context-wide index use the *flattened* ordering (sentence 0 words, then
  sentence 1 words, ...), which is what AnswerSpan and coreference mention
  spans store.
- `Token` objects are read-only views rebuilt on each read, for code that
  wants a word with its offsets as one object; nothing in the audit needs
  them.
- Every type here is a slotted dataclass, with no per-object `__dict__`,
  and the loaders intern word texts, so a loaded corpus holds each distinct
  word once. `RCInstance.context_words` and `sentence_offsets` are the only
  derived fields kept: they are computed once when an instance is made
  (`dataclasses.replace` included) and take no part in `==`, `hash` or
  `repr`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Literal, Sequence

from .errors import InputError

Skill = Literal["comparison", "coreference", "other"]
Scope = Literal["question_tokens", "context_tokens", "all"]

SKILLS = ("comparison", "coreference", "other")


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    index: int
    char_start: int
    char_end: int


def token_view(words: Sequence[str], starts: Sequence[int]) -> tuple[Token, ...]:
    """One Token per word, indexed in order, ending at start + length."""
    return tuple([Token(w, i, s, s + len(w)) for i, (w, s) in enumerate(zip(words, starts))])


def _render(words: Sequence[str], starts: Sequence[int], lo: int, hi: int, pos: int) -> str:
    """Words lo..hi placed at their starts, with spaces in between, from
    character position `pos` on."""
    parts: list[str] = []
    for i in range(lo, hi + 1):
        start = starts[i]
        if start < pos:
            raise InputError(f"overlapping token offsets at index {i}")
        parts.append(" " * (start - pos))
        parts.append(words[i])
        pos = start + len(words[i])
    return "".join(parts)


@dataclass(frozen=True, slots=True)
class Sentence:
    words: tuple[str, ...]
    starts: tuple[int, ...]
    is_supporting_fact: bool = False
    paragraph_id: str = "0"

    @property
    def text(self) -> str:
        """Sentence surface rebuilt from the words and their start offsets."""
        return _render(self.words, self.starts, 0, len(self.words) - 1, 0)

    @property
    def tokens(self) -> tuple[Token, ...]:
        return token_view(self.words, self.starts)

    def surface(self, lo: int, hi: int) -> str:
        """`text` covered by the inclusive word range lo..hi, rendered
        without building `text`."""
        return _render(self.words, self.starts, lo, hi, self.starts[lo])


@dataclass(frozen=True, slots=True)
class AnswerSpan:
    """A context span; token_start/token_end are inclusive flattened indices."""

    text: str
    sentence_index: int
    token_start: int
    token_end: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class RCInstance:
    id: str
    question_words: tuple[str, ...]
    question_starts: tuple[int, ...]
    question_text: str
    context: tuple[Sentence, ...]
    gold_answers: tuple[AnswerSpan, ...]
    skill: Skill = "other"
    annotations: QuestionAnnotations | None = None
    coref_clusters: tuple[tuple[AnswerSpan, ...], ...] = ()
    relevant_cluster: int | None = None
    unannotatable: bool = False
    # Context words in flattened order, and the flattened index of the first
    # word of each sentence.
    context_words: tuple[str, ...] = field(init=False, repr=False, compare=False)
    sentence_offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        words: list[str] = []
        offsets = []
        for sent in self.context:
            offsets.append(len(words))
            words.extend(sent.words)
        object.__setattr__(self, "context_words", tuple(words))
        object.__setattr__(self, "sentence_offsets", tuple(offsets))

    @property
    def question(self) -> tuple[Token, ...]:
        return token_view(self.question_words, self.question_starts)

    @property
    def context_tokens(self) -> tuple[Token, ...]:
        return tuple(tok for sent in self.context for tok in sent.tokens)

    @property
    def n_question(self) -> int:
        return len(self.question_words)

    @property
    def n_context(self) -> int:
        return len(self.context_words)

    def sentence_of(self, flat_index: int) -> int:
        """Sentence index containing the flattened context token index."""
        if flat_index < 0 or flat_index >= self.n_context:
            raise InputError(f"{self.id}: context index {flat_index} out of range")
        return sentence_at(self.sentence_offsets, flat_index)

    def question_surface(self, lo: int, hi: int) -> str:
        """Question text covered by the inclusive word range lo..hi."""
        end = self.question_starts[hi] + len(self.question_words[hi])
        return self.question_text[self.question_starts[lo] : end]

    def span_surface(self, token_start: int, token_end: int) -> str:
        """Context surface text covered by an inclusive flattened token range."""
        sent_idx = self.sentence_of(token_start)
        if self.sentence_of(token_end) != sent_idx:
            raise InputError(f"{self.id}: span crosses sentence boundary")
        off = self.sentence_offsets[sent_idx]
        return self.context[sent_idx].surface(token_start - off, token_end - off)


@dataclass(frozen=True, slots=True)
class EvalResult:
    f1: float
    exact_match: float
    n_instances: int


def sentence_at(starts: Sequence[int], position: int) -> int:
    """Index of the last sentence whose start (ascending `starts`, in tokens
    or characters) is at or before `position`; 0 when none is."""
    return max(bisect_right(starts, position) - 1, 0)


def _check_words(
    words: tuple[str, ...], starts: tuple[int, ...], source: str | None, what: str
) -> None:
    if len(words) != len(starts):
        raise InputError(f"{what}: {len(words)} words but {len(starts)} start offsets")
    pos = 0
    for i, (word, start) in enumerate(zip(words, starts)):
        if type(word) is not str:
            raise InputError(f"{what}: token {i} text must be a string, not {word!r}")
        if type(start) is not int:  # a bool is not an offset either
            raise InputError(f"{what}: token {i} start must be an integer, not {start!r}")
        if not word:
            raise InputError(f"{what}: empty char range for token {i}")
        if start < pos:
            raise InputError(f"{what}: overlapping char offsets at token {i}")
        pos = start + len(word)
        if source is not None and source[start:pos] != word:
            raise InputError(f"{what}: token {i} does not match source text")


def validate_instance(instance: RCInstance) -> RCInstance:
    """Check all structural invariants; returns the instance for chaining."""
    if not instance.question_words:
        raise InputError(f"{instance.id}: question has no tokens")
    if not instance.context:
        raise InputError(f"{instance.id}: context has no sentences")
    _check_words(
        instance.question_words,
        instance.question_starts,
        instance.question_text,
        f"{instance.id} question",
    )
    for s_idx, sent in enumerate(instance.context):
        if not sent.words:
            raise InputError(f"{instance.id}: sentence {s_idx} is empty")
        _check_words(sent.words, sent.starts, None, f"{instance.id} sentence {s_idx}")
    return check_structure(instance)


def check_structure(instance: RCInstance) -> RCInstance:
    """The invariants past the words, for an instance whose words passed:
    spans against the context, the skill, disjoint annotation sets and
    `relevant_cluster`. Returns the instance for chaining."""
    if not instance.gold_answers:
        raise InputError(f"{instance.id}: no gold answers")
    n_ctx = instance.n_context
    spans = instance.gold_answers
    if instance.coref_clusters:
        spans = spans + tuple(m for cl in instance.coref_clusters for m in cl)
    offsets = instance.sentence_offsets
    for span in spans:
        start, end = span.token_start, span.token_end
        if not (0 <= start <= end < n_ctx):
            raise InputError(f"{instance.id}: span {start}..{end} out of range")
        sent = sentence_at(offsets, start)
        if sent != span.sentence_index:
            raise InputError(f"{instance.id}: span sentence index mismatch")
        if sentence_at(offsets, end) != sent:  # what span_surface would raise
            raise InputError(f"{instance.id}: span crosses sentence boundary")
        surface = instance.context[sent].surface(start - offsets[sent], end - offsets[sent])
        if surface != span.text:
            raise InputError(f"{instance.id}: span text {span.text!r} does not match context")
    if instance.skill not in SKILLS:
        raise InputError(f"{instance.id}: unknown skill {instance.skill!r}")
    ann = instance.annotations
    if instance.skill == "comparison":
        if ann is None or not ann.comparison_operator:
            raise InputError(f"{instance.id}: comparison instance lacks operator annotation")
    if ann is not None:
        sets = ann.all_sets()
        indices = frozenset().union(*sets)
        n_question = instance.n_question
        if indices and (min(indices) < 0 or max(indices) >= n_question):
            for idx_set in sets:  # the first index out of range, in set order
                for idx in idx_set:
                    if not (0 <= idx < n_question):
                        raise InputError(f"{instance.id}: annotation index {idx} out of range")
        if len(indices) != sum(map(len, sets)):  # some index is in two sets
            raise InputError(f"{instance.id}: annotation sets overlap")
    if instance.relevant_cluster is not None and not (
        0 <= instance.relevant_cluster < len(instance.coref_clusters)
    ):
        raise InputError(f"{instance.id}: relevant_cluster index out of range")
    return instance

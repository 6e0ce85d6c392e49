"""Adapters from native dataset layouts to RCInstance.

Four layouts are recognized:

- squad_like: {"data": [{"title", "paragraphs": [{"context", "qas": [...]}]}]},
  one paragraph per question, answers carry character offsets.
- hotpot_like: a JSON array of records with pre-split sentences per titled
  paragraph plus supporting-fact labels; the answer is a bare string.
- wiki2hop_like: a JSON array of {"id", "query", "answer", "supports"} where
  supports is a list of paragraph strings; the answer is a bare string.
- quoref_like: squad_like shape whose qas may additionally carry "clusters",
  lists of coreferent character spans into the paragraph.

All adapters re-anchor answers to token spans: the character hint is used
when present, otherwise the first token-level occurrence wins (supporting
sentences searched first). Records whose answer cannot be anchored raise
AnchorError so the loader can skip and count them; structurally malformed
records raise InputError with the record index.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

from ..errors import AnchorError, InputError
from ..text import find_token_run, split_sentences, split_words, words
from ..types import AnswerSpan, RCInstance, Sentence, sentence_at


def paragraph_sentences(text: str, paragraph_id: str) -> tuple[list[Sentence], list[int]]:
    """Split a paragraph into Sentences plus each sentence's char offset."""
    sentences: list[Sentence] = []
    offsets: list[int] = []
    pos = 0
    for piece in split_sentences(text):
        start = text.find(piece, pos)
        sent_words, starts = split_words(piece)
        pos = start + len(piece)
        if not sent_words:
            continue
        sentences.append(Sentence(sent_words, starts, paragraph_id=paragraph_id))
        offsets.append(start)
    if not sentences:
        raise InputError(f"paragraph {paragraph_id!r} has no tokens")
    return sentences, offsets


def _flat_start(context: tuple[Sentence, ...], sent_idx: int) -> int:
    return sum(len(s.words) for s in context[:sent_idx])


def _span_from_local(
    context: tuple[Sentence, ...], sent_idx: int, local_start: int, local_end: int
) -> AnswerSpan:
    base = _flat_start(context, sent_idx)
    return AnswerSpan(
        text=context[sent_idx].surface(local_start, local_end),
        sentence_index=sent_idx,
        token_start=base + local_start,
        token_end=base + local_end,
    )


def _match_at(sent: Sentence, local_start: int, needle: tuple[str, ...]) -> bool:
    if local_start + len(needle) > len(sent.words):
        return False
    return all(
        sent.words[local_start + k].casefold() == needle[k] for k in range(len(needle))
    )


def _search_sentences(
    context: tuple[Sentence, ...], needle: tuple[str, ...], order: list[int]
) -> tuple[int, int] | None:
    for sent_idx in order:
        hit = find_token_run(context[sent_idx].words, needle)
        if hit is not None:
            return sent_idx, hit
    return None


def anchor_answer(
    context: tuple[Sentence, ...],
    answer_text: str,
    char_hint: int | None = None,
    sentence_char_offsets: list[int] | None = None,
) -> AnswerSpan:
    """Locate an answer string in the context as an inclusive token span.

    `char_hint` is a character offset into the source paragraph whose
    sentence starts are given by `sentence_char_offsets`. Falls back to a
    token-level search (supporting sentences first) when the hint is absent
    or does not pan out.
    """
    needle = tuple(w.casefold() for w in words(answer_text))
    if not needle:
        raise AnchorError(f"empty answer text {answer_text!r}")
    if char_hint is not None and sentence_char_offsets is not None:
        sent_idx = sentence_at(sentence_char_offsets, char_hint)
        sent = context[sent_idx]
        local_hint = char_hint - sentence_char_offsets[sent_idx]
        for local_start, (word, start) in enumerate(zip(sent.words, sent.starts)):
            if start + len(word) > local_hint:
                if _match_at(sent, local_start, needle):
                    return _span_from_local(
                        context, sent_idx, local_start, local_start + len(needle) - 1
                    )
                break
    order = [i for i, s in enumerate(context) if s.is_supporting_fact]
    order += [i for i in range(len(context)) if i not in order]
    hit = _search_sentences(context, needle, order)
    if hit is None:
        raise AnchorError(f"answer {answer_text!r} not found in context")
    sent_idx, local_start = hit
    return _span_from_local(context, sent_idx, local_start, local_start + len(needle) - 1)


def _anchor_all(
    context: tuple[Sentence, ...],
    answers: list[tuple[str, int | None]],
    sentence_char_offsets: list[int] | None,
) -> tuple[AnswerSpan, ...]:
    spans: list[AnswerSpan] = []
    for text, hint in answers:
        try:
            span = anchor_answer(context, text, hint, sentence_char_offsets)
        except AnchorError:
            continue
        if span not in spans:
            spans.append(span)
    if not spans:
        raise AnchorError(f"no gold answer found in context: {[a for a, _ in answers]!r}")
    return tuple(spans)


def _mark_supporting(
    context: tuple[Sentence, ...], spans: tuple[AnswerSpan, ...]
) -> tuple[Sentence, ...]:
    """Flag the sentences containing gold answers as supporting facts."""
    hot = {span.sentence_index for span in spans}
    return tuple(replace(s, is_supporting_fact=i in hot) for i, s in enumerate(context))


def _mention_span(
    context: tuple[Sentence, ...],
    sentence_char_offsets: list[int],
    char_start: int,
    char_end: int,
) -> AnswerSpan | None:
    """Convert a character range into the covered token span, if clean."""
    sent_idx = sentence_at(sentence_char_offsets, char_start)
    sent = context[sent_idx]
    local_start = char_start - sentence_char_offsets[sent_idx]
    local_end = char_end - sentence_char_offsets[sent_idx]
    covered = [
        i
        for i, (word, start) in enumerate(zip(sent.words, sent.starts))
        if start + len(word) > local_start and start < local_end
    ]
    if not covered:
        return None
    return _span_from_local(context, sent_idx, covered[0], covered[-1])


def _string(value, what: str) -> str:
    """`value`, which must be a string: an id or a title is never coerced."""
    if type(value) is not str:
        raise InputError(f"{what} must be a string, not {value!r}")
    return value


def _question(text: str) -> dict:
    """The question fields of an RCInstance asking `text`."""
    question_words, question_starts = split_words(text)
    if not question_words:
        raise InputError("empty question")
    return {
        "question_words": question_words,
        "question_starts": question_starts,
        "question_text": text,
    }


def _build_squad_instance(
    qa: dict, paragraph: dict, title, with_clusters: bool
) -> RCInstance:
    sentences, offsets = paragraph_sentences(paragraph["context"], _string(title, "title"))
    context = tuple(sentences)
    answers = [(a["text"], a.get("answer_start")) for a in qa["answers"]]
    spans = _anchor_all(context, answers, offsets)
    context = _mark_supporting(context, spans)
    clusters: list[tuple[AnswerSpan, ...]] = []
    if with_clusters:
        for raw_cluster in qa.get("clusters", ()):
            mentions = []
            for m in raw_cluster:
                span = _mention_span(context, offsets, m["start"], m["end"])
                if span is not None and span not in mentions:
                    mentions.append(span)
            if mentions:
                clusters.append(tuple(mentions))
    return RCInstance(
        id=_string(qa["id"], "id"),
        **_question(qa["question"]),
        context=context,
        gold_answers=spans,
        coref_clusters=tuple(clusters),
    )


def _squad_like(doc: dict, with_clusters: bool) -> Iterator[tuple[int, Callable[[], RCInstance]]]:
    idx = 0
    for article in doc["data"]:
        for paragraph in article["paragraphs"]:
            title = article.get("title", "0")
            for qa in paragraph["qas"]:

                def build(qa=qa, paragraph=paragraph, title=title) -> RCInstance:
                    return _build_squad_instance(qa, paragraph, title, with_clusters)

                yield idx, build
                idx += 1


def adapt_squad_like(doc: dict) -> Iterator[tuple[int, Callable[[], RCInstance]]]:
    return _squad_like(doc, with_clusters=False)


def adapt_quoref_like(doc: dict) -> Iterator[tuple[int, Callable[[], RCInstance]]]:
    return _squad_like(doc, with_clusters=True)


def _build_hotpot_instance(record: dict) -> RCInstance:
    supporting = {(title, i) for title, i in map(tuple, record.get("supporting_facts", ()))}
    sentences: list[Sentence] = []
    for title, sents in record["context"]:
        title = _string(title, "title")
        for i, sent_text in enumerate(sents):
            sent_words, starts = split_words(sent_text)
            if not sent_words:
                continue
            sentences.append(
                Sentence(
                    sent_words,
                    starts,
                    is_supporting_fact=(title, i) in supporting,
                    paragraph_id=title,
                )
            )
    if not sentences:
        raise InputError("record has no context tokens")
    context = tuple(sentences)
    spans = _anchor_all(context, [(record["answer"], None)], None)
    return RCInstance(
        id=_string(record["_id"], "id"),
        **_question(record["question"]),
        context=context,
        gold_answers=spans,
    )


def adapt_hotpot_like(doc: list) -> Iterator[tuple[int, Callable[[], RCInstance]]]:
    for idx, record in enumerate(doc):
        yield idx, (lambda record=record: _build_hotpot_instance(record))


def _build_wiki2hop_instance(record: dict) -> RCInstance:
    sentences: list[Sentence] = []
    for p_idx, paragraph in enumerate(record["supports"]):
        part, _ = paragraph_sentences(paragraph, str(p_idx))
        sentences.extend(part)
    if not sentences:
        raise InputError("record has no context tokens")
    context = tuple(sentences)
    spans = _anchor_all(context, [(record["answer"], None)], None)
    context = _mark_supporting(context, spans)
    return RCInstance(
        id=_string(record["id"], "id"),
        **_question(record["query"]),
        context=context,
        gold_answers=spans,
    )


def adapt_wiki2hop_like(doc: list) -> Iterator[tuple[int, Callable[[], RCInstance]]]:
    for idx, record in enumerate(doc):
        yield idx, (lambda record=record: _build_wiki2hop_instance(record))


FORMAT_ADAPTERS: dict[str, Callable[[object], Iterator[tuple[int, Callable[[], RCInstance]]]]] = {
    "squad_like": adapt_squad_like,
    "hotpot_like": adapt_hotpot_like,
    "wiki2hop_like": adapt_wiki2hop_like,
    "quoref_like": adapt_quoref_like,
}

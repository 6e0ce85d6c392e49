"""Unified on-disk instance schema (UTF-8 JSON lines).

One instance per line:

    {"id": ..., "question": {"text": ..., "tokens": [{"text","start","end"}]},
     "context": [{"paragraph_id", "supporting", "tokens": [...]}],
     "answers": [{"text","sent","tok_start","tok_end"}],
     "skill": ..., "annotations": {...}?, "coref_clusters": [[span...]]?}

In memory a question or sentence keeps only the token texts and starts:
each token's `end` is checked to equal start plus length on load, then
dropped, and written back as start plus length. Loading a file written by
`save_jsonl` reproduces the in-memory instances exactly, field for field.

`instance_from_dict` is the one decoder from a record to a checked
instance. One loop over each token list builds the words and starts and
checks every per-word rule of `types.validate_instance` (`end`, a non-empty
word, no overlap, a question word equal to its slice of the question
text); the checks past the words then run once, in `types.check_structure`.
Only a record that fails is decoded again the two-pass way (each `end`,
then `validate_instance`), so that the error names its first fault exactly
as those checks name it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from ..errors import InputError
from ..types import (
    AnswerSpan,
    QuestionAnnotations,
    RCInstance,
    Sentence,
    check_structure,
    validate_instance,
)


_raw_decode = json.JSONDecoder().raw_decode


def _tokens_to_dicts(words: tuple[str, ...], starts: tuple[int, ...]) -> list[dict]:
    return [{"text": w, "start": s, "end": s + len(w)} for w, s in zip(words, starts)]


def _words_from_dicts(
    items: list[dict], question: dict | None, iid, s_idx: int | None
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The texts and starts of token records whose `end` is start plus length."""
    words, starts = [], []
    for i, d in enumerate(items):
        word, start = d["text"], d["start"]
        if d["end"] - start != len(word):
            what = f"{iid} question" if s_idx is None else f"{iid} sentence {s_idx}"
            raise InputError(f"{what}: text length mismatch at token {i}")
        words.append(word)
        starts.append(start)
    return tuple(words), tuple(starts)


class _Fault(Exception):
    """A per-word check of the one-pass decoder failed."""


def _checked_words(
    items: list[dict], question: dict | None, iid, s_idx: int | None
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The texts and starts of a non-empty token list, every token checked
    as it is read: `end` is start plus length, the word is not empty, it
    starts at or after the previous word's end and, in the question, it is
    its slice of the question text."""
    source = None if question is None else question["text"]
    words, starts = [], []
    pos = 0
    for d in items:
        word, start = d["text"], d["start"]
        n = len(word)
        if d["end"] - start != n or not word or start < pos:
            raise _Fault
        pos = start + n
        if source is not None and source[start:pos] != word:
            raise _Fault
        words.append(word)
        starts.append(start)
    if not words:
        raise _Fault
    return tuple(words), tuple(starts)


def span_to_dict(span: AnswerSpan) -> dict:
    """The answer record {text, sent, tok_start, tok_end} of the schema, also
    used by counterfactual files and the remote protocol's predicted span."""
    return {
        "text": span.text,
        "sent": span.sentence_index,
        "tok_start": span.token_start,
        "tok_end": span.token_end,
    }


def span_from_dict(d: dict) -> AnswerSpan:
    return AnswerSpan(
        text=d["text"],
        sentence_index=d["sent"],
        token_start=d["tok_start"],
        token_end=d["tok_end"],
    )


def instance_to_dict(instance: RCInstance) -> dict:
    doc: dict = {
        "id": instance.id,
        "question": {
            "text": instance.question_text,
            "tokens": _tokens_to_dicts(instance.question_words, instance.question_starts),
        },
        "context": [
            {
                "paragraph_id": s.paragraph_id,
                "supporting": s.is_supporting_fact,
                "tokens": _tokens_to_dicts(s.words, s.starts),
            }
            for s in instance.context
        ],
        "answers": [span_to_dict(a) for a in instance.gold_answers],
        "skill": instance.skill,
    }
    ann: dict = {}
    if instance.annotations is not None:
        qa = instance.annotations
        ann = {
            "comparison_operator": sorted(qa.comparison_operator),
            "compared_entities": [sorted(e) for e in qa.compared_entities],
            "value_tokens": sorted(qa.value_tokens),
            "verb_tokens": sorted(qa.verb_tokens),
        }
    if instance.relevant_cluster is not None:
        ann["relevant_cluster"] = instance.relevant_cluster
    if instance.unannotatable:
        ann["unannotatable"] = True
    if ann:
        doc["annotations"] = ann
    if instance.coref_clusters:
        doc["coref_clusters"] = [
            [span_to_dict(m) for m in cluster] for cluster in instance.coref_clusters
        ]
    return doc


def _build(doc: dict, words_of) -> RCInstance:
    """The instance a record describes, each token list turned into texts
    and starts by `words_of(items, question, iid, s_idx)`, where `question`
    is the question record for the question's tokens and None for a
    sentence's."""
    try:
        ann_doc = doc.get("annotations") or {}
        annotations = None
        if any(
            key in ann_doc
            for key in ("comparison_operator", "compared_entities", "value_tokens", "verb_tokens")
        ):
            annotations = QuestionAnnotations(
                comparison_operator=frozenset(ann_doc.get("comparison_operator", ())),
                compared_entities=tuple(
                    frozenset(e) for e in ann_doc.get("compared_entities", ())
                ),
                value_tokens=frozenset(ann_doc.get("value_tokens", ())),
                verb_tokens=frozenset(ann_doc.get("verb_tokens", ())),
            )
        iid = doc["id"]
        question = doc["question"]
        question_words, question_starts = words_of(question["tokens"], question, iid, None)
        return RCInstance(
            id=iid,
            question_words=question_words,
            question_starts=question_starts,
            question_text=question["text"],
            context=tuple(
                Sentence(
                    *words_of(s["tokens"], None, iid, s_idx),
                    is_supporting_fact=bool(s["supporting"]),
                    paragraph_id=str(s["paragraph_id"]),
                )
                for s_idx, s in enumerate(doc["context"])
            ),
            gold_answers=tuple(span_from_dict(a) for a in doc["answers"]),
            skill=doc.get("skill", "other"),
            annotations=annotations,
            coref_clusters=tuple(
                tuple(span_from_dict(m) for m in cluster)
                for cluster in doc.get("coref_clusters", ())
            ),
            relevant_cluster=ann_doc.get("relevant_cluster"),
            unannotatable=bool(ann_doc.get("unannotatable", False)),
        )
    except (AttributeError, KeyError, TypeError) as exc:  # AttributeError: not an object
        raise InputError(f"malformed instance record: {exc}") from exc


def instance_from_dict(doc: dict) -> RCInstance:
    """The checked instance a unified record describes, or the error that
    names its first fault (see the module docstring)."""
    try:
        instance = _build(doc, _checked_words)
    except (_Fault, InputError):  # a failed check, or a field missing or mistyped
        instance = None
    if instance is None or not instance.context:
        return validate_instance(_build(doc, _words_from_dicts))
    return check_structure(instance)


def save_jsonl(instances: Iterable[RCInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(json.dumps(instance_to_dict(instance), ensure_ascii=False) + "\n")


def load_jsonl(path: str | Path) -> list[RCInstance]:
    instances = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                doc, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):  # json.loads names the fault, "Extra data" included
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}: bad JSON on line {line_no + 1}: {exc}") from exc
            try:
                instances.append(instance_from_dict(doc))
            except InputError as exc:  # a wrapped KeyError etc. is named as for adapter records
                reason = repr(exc.__cause__) if exc.__cause__ else exc
                raise InputError(f"{path}: malformed record {len(instances)}: {reason}") from exc
    return instances

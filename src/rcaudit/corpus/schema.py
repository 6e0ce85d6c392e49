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
instance. It reads the record once and checks each field's type where it
reads it: a wrong one is a malformed record (`supporting` and
`unannotatable` must be booleans, not just truthy). One loop over each
token list builds the words and starts, stops at a token whose `end` is
not its start plus length, and notes any other fault of the per-word rules
of `types.validate_instance`; a record with one runs `validate_instance`,
which names its first fault, and any other runs only
`types.check_structure`. Each word text and `paragraph_id` is interned once
its type is checked, so a loaded corpus holds each distinct string once.
`read_jsonl` reads every JSON-lines file.
"""

from __future__ import annotations

import json
from pathlib import Path
from sys import intern
from typing import Iterable, Iterator

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


def _words(
    items: list[dict], source: str | None, iid: str, s_idx: int | None
) -> tuple[tuple[str, ...], tuple[int, ...], bool]:
    """The texts and starts of a token list, and whether it is not empty and
    every token passes the per-word checks of `validate_instance` (`source`
    is the question text, or None for a sentence). A token whose `end` is
    not its start plus length is an InputError at once."""
    words, starts = [], []
    ok, pos = True, 0
    for d in items:
        word, start = d["text"], d["start"]
        if d["end"] - start != (n := len(word)):
            what = f"{iid} question" if s_idx is None else f"{iid} sentence {s_idx}"
            raise InputError(f"{what}: text length mismatch at token {len(words)}")
        if ok:
            if type(word) is not str or type(start) is not int or not n or start < pos:
                ok = False
            else:
                word = intern(word)
                pos = start + n
                if source is not None and source[start:pos] != word:
                    ok = False
        words.append(word)
        starts.append(start)
    return tuple(words), tuple(starts), ok and bool(words)


_NO_INDICES: frozenset[int] = frozenset()


def _indices(values) -> frozenset[int]:
    """An annotation's set of question-word indices; every empty one is the
    same object."""
    for i in values:
        if type(i) is not int:  # a bool is not an index either
            raise TypeError(f"annotation index must be an integer, not {i!r}")
    return frozenset(values) if values else _NO_INDICES


def checked_sentence(
    words: tuple[str, ...], starts: tuple[int, ...], supporting, paragraph_id
) -> Sentence:
    """A Sentence of a record's `supporting` and `paragraph_id` fields; a
    field of the wrong JSON type is a TypeError that names it."""
    if type(supporting) is not bool:
        raise TypeError(f"supporting must be a boolean, not {supporting!r}")
    if type(paragraph_id) is not str:
        raise TypeError(f"paragraph_id must be a string, not {paragraph_id!r}")
    return Sentence(words, starts, supporting, intern(paragraph_id))


def span_to_dict(span: AnswerSpan) -> dict:
    """The answer record {text, sent, tok_start, tok_end} of the schema, also
    used by counterfactual files and the remote protocol's predicted span."""
    return {
        "text": span.text,
        "sent": span.sentence_index,
        "tok_start": span.token_start,
        "tok_end": span.token_end,
    }


def span_from_dict(d: dict, what: str) -> AnswerSpan:
    """The span of an answer record; a field of the wrong JSON type is a
    TypeError that names it as `what` plus the field: `text` must be a
    string, and `sent`, `tok_start` and `tok_end` integers, not booleans."""
    text, sent, start, end = d["text"], d["sent"], d["tok_start"], d["tok_end"]
    if type(text) is not str:
        raise TypeError(f"{what} text must be a string, not {text!r}")
    if not type(sent) is type(start) is type(end) is int:
        for name, value in (("sent", sent), ("tok_start", start), ("tok_end", end)):
            if type(value) is not int:
                raise TypeError(f"{what} {name} must be an integer, not {value!r}")
    return AnswerSpan(text, sent, start, end)


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


def instance_from_dict(doc: dict) -> RCInstance:
    """The checked instance a unified record describes, or the error that
    names its first fault (see the module docstring)."""
    try:
        ann_doc = doc.get("annotations") or {}
        annotations = None
        if any(
            key in ann_doc
            for key in ("comparison_operator", "compared_entities", "value_tokens", "verb_tokens")
        ):
            annotations = QuestionAnnotations(
                comparison_operator=_indices(ann_doc.get("comparison_operator", ())),
                compared_entities=tuple(_indices(e) for e in ann_doc.get("compared_entities", ())),
                value_tokens=_indices(ann_doc.get("value_tokens", ())),
                verb_tokens=_indices(ann_doc.get("verb_tokens", ())),
            )
        relevant_cluster = ann_doc.get("relevant_cluster")
        if "relevant_cluster" in ann_doc and type(relevant_cluster) is not int:
            raise TypeError(f"relevant_cluster must be an integer, not {relevant_cluster!r}")
        unannotatable = ann_doc.get("unannotatable", False)
        if type(unannotatable) is not bool:
            raise TypeError(f"unannotatable must be a boolean, not {unannotatable!r}")
        iid, question = doc["id"], doc["question"]
        tokens, q_text = question["tokens"], question["text"]
        if type(iid) is not str:
            raise TypeError(f"id must be a string, not {iid!r}")
        if type(q_text) is not str:
            raise TypeError(f"question text must be a string, not {q_text!r}")
        q_words, q_starts, clean = _words(tokens, q_text, iid, None)
        context = []
        for s_idx, s in enumerate(doc["context"]):
            words, starts, ok = _words(s["tokens"], None, iid, s_idx)
            clean = clean and ok
            context.append(checked_sentence(words, starts, s["supporting"], s["paragraph_id"]))
        instance = RCInstance(
            id=iid,
            question_words=q_words,
            question_starts=q_starts,
            question_text=q_text,
            context=tuple(context),
            gold_answers=tuple(span_from_dict(a, "answer") for a in doc["answers"]),
            skill=doc.get("skill", "other"),
            annotations=annotations,
            coref_clusters=tuple(
                tuple(span_from_dict(m, "mention") for m in cluster)
                for cluster in doc.get("coref_clusters", ())
            ),
            relevant_cluster=relevant_cluster,
            unannotatable=unannotatable,
        )
    except (AttributeError, KeyError, TypeError) as exc:  # AttributeError: not an object
        raise InputError(f"malformed instance record: {exc}") from exc
    return check_structure(instance) if clean and context else validate_instance(instance)


def save_jsonl(instances: Iterable[RCInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(json.dumps(instance_to_dict(instance), ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Each non-blank line of a JSON-lines file, parsed, with its line number
    (from 1). A line that is not JSON, an integer past Python's 4300-digit
    limit included, is `<path>: bad JSON on line <n>: <reason>`, the reason
    as `json.loads` gives it, and a file that is not UTF-8 is an InputError
    too."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc, end = _raw_decode(line)
                except ValueError:
                    end = None
                if end != len(line):  # json.loads names the fault, "Extra data" included
                    try:
                        doc = json.loads(line)
                    except ValueError as exc:
                        raise InputError(f"{path}: bad JSON on line {line_no}: {exc}") from exc
                yield line_no, doc
        except UnicodeDecodeError as exc:  # the file is decoded in chunks, not lines
            raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def load_jsonl(path: str | Path) -> list[RCInstance]:
    instances = []
    for _, doc in read_jsonl(path):
        try:
            instances.append(instance_from_dict(doc))
        except InputError as exc:  # a wrapped KeyError etc. is named as for adapter records
            reason = repr(exc.__cause__) if exc.__cause__ else exc
            raise InputError(f"{path}: malformed record {len(instances)}: {reason}") from exc
    return instances

"""Shared fixtures: the bundled corpus, manual CF pairs, and an instance builder."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from rcaudit.corpus.annotate import annotate_question
from rcaudit.corpus.filters import filter_comparison, filter_coref_answer_in_cluster
from rcaudit.corpus.schema import load_jsonl, save_jsonl
from rcaudit.counterfactuals import CFPair, load_cf_pairs, save_cf_pairs, validate_cf
from rcaudit.data import coref_cf_pairs_path, fixture_corpus_path
from rcaudit.partitions import build_skill_partition
from rcaudit.text import find_token_run, make_sentence, split_words, words
from rcaudit.types import AnswerSpan, RCInstance, validate_instance

DATA_DIR = Path(__file__).parent / "data"


def span_at(context, sent_idx: int, surface: str) -> AnswerSpan:
    """AnswerSpan for the first occurrence of `surface` in the given sentence."""
    needle = words(surface)
    hit = find_token_run(context[sent_idx].words, needle)
    assert hit is not None, f"{surface!r} not found in sentence {sent_idx}"
    offset = sum(len(s.words) for s in context[:sent_idx])
    return AnswerSpan(
        text=surface,
        sentence_index=sent_idx,
        token_start=offset + hit,
        token_end=offset + hit + len(needle) - 1,
    )


def build_instance(
    iid: str,
    question: str,
    sentences,
    gold,
    skill: str = "other",
    mentions=None,
    supporting=None,
    annotate: bool = False,
) -> RCInstance:
    """Assemble a validated instance from plain strings.

    gold is (sentence index, surface); mentions, when given, become one
    coreference cluster of (sentence index, surface) pairs; annotate=True
    runs the comparison filter + annotator.
    """
    if supporting is None:
        supporting = [True] * len(sentences)
    context = tuple(
        make_sentence(text, supporting=sup) for text, sup in zip(sentences, supporting)
    )
    gold_sent, gold_surface = gold
    question_words, question_starts = split_words(question)
    inst = RCInstance(
        id=iid,
        question_words=question_words,
        question_starts=question_starts,
        question_text=question,
        context=context,
        gold_answers=(span_at(context, gold_sent, gold_surface),),
        skill="other",
    )
    if mentions is not None:
        cluster = tuple(span_at(context, s, surf) for s, surf in mentions)
        inst = replace(inst, coref_clusters=(cluster,))
        kept = filter_coref_answer_in_cluster([inst])
        assert kept, f"{iid}: cluster does not contain the gold answer"
        inst = kept[0]
    if annotate:
        kept = filter_comparison([inst])
        assert kept, f"{iid}: no comparative operator in question"
        inst = annotate_question(kept[0])
    if skill != "other" and inst.skill == "other":
        inst = replace(inst, skill=skill)
    validate_instance(inst)
    return inst


@pytest.fixture(scope="session")
def corpus():
    return load_jsonl(fixture_corpus_path())


@pytest.fixture(scope="session")
def corpus_by_id(corpus):
    return {inst.id: inst for inst in corpus}


@pytest.fixture(scope="session")
def manual_pairs(corpus):
    return load_cf_pairs(coref_cf_pairs_path(), corpus)


_ENGINEERED = [
    # id, question, sentences, gold, mention pronoun sentence, CF insert, CF gold
    (
        "a01",
        "Who fixed the old clock?",
        ["Nora Quist fixed the old clock.", "She hummed softly."],
        "Nora Quist",
        "She",
        "Her helper Tove Berg cleaned the gears.",
        "Tove Berg",
    ),
    (
        "a02",
        "Who planted the oak tree?",
        ["Jonas Hale planted the oak tree.", "He watered it daily."],
        "Jonas Hale",
        "He",
        "His son Piet Hale carried the spade.",
        "Piet Hale",
    ),
    (
        "a03",
        "Who signed the charter?",
        ["Lila Moreno signed the charter.", "She smiled broadly."],
        "Lila Moreno",
        "She",
        "Her deputy Omar Reyes read the minutes.",
        "Omar Reyes",
    ),
]


def make_engineered_alignment(root: Path) -> dict:
    """Tiny coreference audit with a fully scripted model.

    Three instances with hand-authored counterfactual twins; the scripted
    model answers everything correctly, its occlusion profile concentrates
    on the mention cluster for a01 and a02 but is flat for a03, so exactly
    two of three audits align (score 2/3 -> "66.7" in the CSV).
    """
    instances = []
    pairs = []
    script: dict = {"name": "engineered", "instances": {}}
    for iid, question, sentences, gold, pronoun, insert, cf_gold in _ENGINEERED:
        orig = build_instance(
            iid, question, sentences, gold=(0, gold), mentions=[(0, gold), (1, pronoun)]
        )
        pert = build_instance(
            iid, question, [sentences[0], insert, sentences[1]], gold=(1, cf_gold)
        )
        pair = CFPair(
            original=orig,
            perturbed=replace(pert, id=f"{iid}::cf"),
            perturbation="cluster_insertion",
            distribution_tag="in_distribution",
        )
        assert validate_cf(pair) == []
        instances.append(orig)
        pairs.append(pair)

        partition = build_skill_partition(orig)
        n_q = orig.n_question
        sensitivity = [0.0] * (n_q + orig.n_context)
        if iid == "a03":
            for i in range(orig.n_context):
                sensitivity[n_q + i] = 0.05  # flat: t=0, never significant
        else:
            for i in range(orig.n_context):
                sensitivity[n_q + i] = 0.008 + 0.001 * (i % 5)
            for rank, i in enumerate(sorted(partition.positive)):
                sensitivity[n_q + i] = 0.30 - 0.01 * rank
        for inst in (orig, pair.perturbed):
            span = inst.gold_answers[0]
            script["instances"][inst.id] = {
                "answer": [span.token_start, span.token_end],
                "base": 0.9,
                "sensitivity": sensitivity
                if inst.id == iid
                else [0.0] * (inst.n_question + inst.n_context),
            }

    corpus_path = root / "corpus.jsonl"
    pairs_path = root / "cf_pairs.jsonl"
    script_path = root / "model.json"
    save_jsonl(instances, corpus_path)
    save_cf_pairs(pairs, pairs_path)
    script_path.write_text(json.dumps(script, indent=2))
    return {
        "corpus": corpus_path,
        "pairs": pairs_path,
        "script": script_path,
        "model_id": "scripted:engineered",
        "aligned": {"a01": True, "a02": True, "a03": False},
        "score": 2 / 3,
    }

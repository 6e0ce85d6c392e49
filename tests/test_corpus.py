"""Corpus ingestion tests: schema, adapters, context modes, filters, annotation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcaudit.corpus.loader as loader_module
import rcaudit.corpus.schema as schema_module
import rcaudit.types as types_module
from rcaudit.corpus.annotate import annotate_question
from rcaudit.corpus.filters import (
    OPERATOR_ANTONYMS,
    filter_comparison,
    filter_coref_answer_in_cluster,
    match_operator,
)
from rcaudit.corpus.loader import DatasetDescriptor, load_dataset, reduce_context
from rcaudit.corpus.schema import instance_from_dict, instance_to_dict, load_jsonl, save_jsonl
from rcaudit.counterfactuals import OUT_OF_DISTRIBUTION_TABLE
from rcaudit.data import fixture_corpus_path
from rcaudit.errors import InputError
from rcaudit.synthetic import make_synthetic_corpus
from rcaudit.types import SKILLS, RCInstance, check_structure, validate_instance

from conftest import DATA_DIR, build_instance, span_at
from oracle_helpers import oracle_instance_from_dict


class TestSchema:
    def test_dict_round_trip_identity(self, corpus):
        for inst in corpus:
            assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_file_round_trip_identity(self, corpus, tmp_path):
        path = tmp_path / "copy.jsonl"
        save_jsonl(corpus, path)
        assert load_jsonl(path) == corpus

    def test_save_is_deterministic(self, corpus, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(corpus, a)
        save_jsonl(corpus, b)
        assert a.read_bytes() == b.read_bytes()

    # The recorded occlusion-longctx calibration of the benchmark rests on these bytes.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "73ce611c3c692a3eb65a878ee90a6b8731c338bd7c05c1b66379fb660210ff53"),
            (7, "f8306cc6981cb3a75ab341fbe8ab530f0e1c1f4267256e0e4b28d116d62a906d"),
        ],
    )
    def test_synthetic_corpus_bytes_are_pinned(self, tmp_path, seed, digest):
        path = tmp_path / "synthetic.jsonl"
        save_jsonl(make_synthetic_corpus(200, seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


_RECORD_WORDS = st.text(alphabet=st.sampled_from(list("aZ9'.,?ß漢")), min_size=1, max_size=5)


def _token_records(draw, min_size: int) -> tuple[str, list[dict]]:
    """A source text and its token records, words spaced by 0-2 spaces."""
    record_words = draw(st.lists(_RECORD_WORDS, min_size=min_size, max_size=8))
    text, records = "", []
    for word in record_words:
        text += " " * draw(st.integers(0, 2))
        records.append({"text": word, "start": len(text), "end": len(text) + len(word)})
        text += word
    return text, records


def _span_record(draw, sentences: list[tuple[str, list[dict]]]) -> dict:
    """A span of one to three words of a sentence, its text the words as the
    sentence text holds them."""
    sent = draw(st.integers(0, len(sentences) - 1))
    text, tokens = sentences[sent]
    lo = draw(st.integers(0, len(tokens) - 1))
    hi = draw(st.integers(lo, min(lo + 2, len(tokens) - 1)))
    offset = sum(len(t) for _, t in sentences[:sent])
    return {
        "text": text[tokens[lo]["start"] : tokens[hi]["end"]],
        "sent": sent,
        "tok_start": offset + lo,
        "tok_end": offset + hi,
    }


@st.composite
def unified_records(draw) -> dict:
    """Unified records in the form `instance_to_dict` writes, each of which
    passes every check of the decoder."""
    question_text, question_tokens = _token_records(draw, 1)
    sentences = [_token_records(draw, 1) for _ in range(draw(st.integers(1, 3)))]
    skill = draw(st.sampled_from(SKILLS))
    doc: dict = {
        "id": draw(st.text(min_size=1, max_size=4)),
        "question": {"text": question_text, "tokens": question_tokens},
        "context": [
            {
                "paragraph_id": draw(st.sampled_from(["0", "a", "p7"])),
                "supporting": draw(st.booleans()),
                "tokens": tokens,
            }
            for _, tokens in sentences
        ],
        "answers": [_span_record(draw, sentences) for _ in range(draw(st.integers(1, 2)))],
        "skill": skill,
    }
    n_q = len(question_tokens)
    annotations: dict = {}
    if skill == "comparison" or draw(st.booleans()):
        # Each question word belongs to at most one set: the operator, an
        # entity, the values or the verbs.
        n_entities = draw(st.integers(0, 2))
        roles = draw(st.lists(st.integers(-1, 2 + n_entities), min_size=n_q, max_size=n_q))
        if skill == "comparison":
            roles[draw(st.integers(0, n_q - 1))] = 0
        members = [sorted(i for i, role in enumerate(roles) if role == k) for k in range(3 + n_entities)]
        annotations = {
            "comparison_operator": members[0],
            "compared_entities": members[3:],
            "value_tokens": members[1],
            "verb_tokens": members[2],
        }
    clusters = [
        [_span_record(draw, sentences) for _ in range(draw(st.integers(1, 2)))]
        for _ in range(draw(st.integers(0, 2)))
    ]
    if clusters and draw(st.booleans()):
        annotations["relevant_cluster"] = draw(st.integers(0, len(clusters) - 1))
    if draw(st.booleans()):
        annotations["unannotatable"] = True
    if annotations:
        doc["annotations"] = annotations
    if clusters:
        doc["coref_clusters"] = clusters
    return doc


def _bundled_record(edit) -> dict:
    """cmp-01 of the bundled corpus as a unified record, changed by `edit`."""
    (inst,) = [i for i in load_jsonl(fixture_corpus_path()) if i.id == "cmp-01"]
    doc = instance_to_dict(inst)
    edit(doc)
    return doc


def _overlap_question_words(doc: dict) -> None:
    second = doc["question"]["tokens"][1]
    second.update(start=0, end=len(second["text"]))


def _empty_context_word(doc: dict) -> None:
    third = doc["context"][0]["tokens"][2]
    third.update(text="", end=third["start"])


def _stretch_context_word(doc: dict) -> None:
    doc["context"][1]["tokens"][0]["end"] += 1


def _respell_question_word(doc: dict) -> None:
    first = doc["question"]["tokens"][0]
    first["text"] = "W" * len(first["text"])


def _stretch_answer(doc: dict) -> None:
    doc["answers"][0]["tok_end"] = 999


class TestWordsForm:
    """Instances hold words and start offsets; the records keep `end`."""

    @settings(max_examples=150, deadline=None)
    @given(unified_records())
    def test_records_round_trip(self, doc):
        assert instance_to_dict(instance_from_dict(doc)) == doc

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_overlap_question_words, "cmp-01 question: overlapping char offsets at token 1"),
            (_empty_context_word, "cmp-01 sentence 0: empty char range for token 2"),
            (_stretch_context_word, "cmp-01 sentence 1: text length mismatch at token 0"),
            (_respell_question_word, "cmp-01 question: token 0 does not match source text"),
            (_stretch_answer, r"cmp-01: span \d+\.\.999 out of range"),
        ],
    )
    def test_each_broken_record_names_its_fault(self, edit, message):
        doc = _bundled_record(edit)
        with pytest.raises(InputError, match=message):
            validate_instance(instance_from_dict(doc))


_JUNK_OFFSETS = st.sampled_from([None, "0", 1.5, True])


@st.composite
def faulty_records(draw) -> dict:
    """A checked unified record with one to three token fields changed: a
    text to another word or to "", an offset to another integer or, now
    and then, to a value of another type. A changed text or start mostly
    keeps its `end` in step."""
    doc = draw(unified_records())
    tokens = doc["question"]["tokens"] + [t for s in doc["context"] for t in s["tokens"]]
    for _ in range(draw(st.integers(1, 3))):
        token = draw(st.sampled_from(tokens))
        field = draw(st.sampled_from(["text", "start", "end"]))
        if field == "text":
            token["text"] = draw(st.one_of(_RECORD_WORDS, st.just("")))
        elif draw(st.integers(0, 9)):
            token[field] = draw(st.integers(-2, 40))
        else:
            token[field] = draw(_JUNK_OFFSETS)
        if field != "end" and draw(st.integers(0, 3)):
            try:
                token["end"] = token["start"] + len(token["text"])
            except TypeError:
                pass
    return doc


def _outcome(decode, doc: dict):
    """The instance `decode` builds from `doc`, or its error's type and text."""
    try:
        return decode(doc)
    except Exception as exc:
        return type(exc), str(exc)


class TestOnePassDecoder:
    """instance_from_dict checks each token as it reads it; what it accepts
    and every fault it names match the two-pass reference."""

    @settings(max_examples=400, deadline=None)
    @given(faulty_records())
    def test_faulty_tokens_are_named_as_by_the_two_pass_reference(self, doc):
        assert _outcome(instance_from_dict, doc) == _outcome(oracle_instance_from_dict, doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["question"].update(tokens=[]), "cmp-01: question has no tokens"),
            (lambda doc: doc.update(context=[]), "cmp-01: context has no sentences"),
            (lambda doc: doc["context"][1].update(tokens=[]), "cmp-01: sentence 1 is empty"),
        ],
    )
    def test_empty_token_lists_are_named_as_by_the_two_pass_reference(self, edit, message):
        doc = _bundled_record(edit)
        with pytest.raises(InputError) as caught:
            instance_from_dict(doc)
        assert str(caught.value) == message
        assert _outcome(oracle_instance_from_dict, doc) == (InputError, message)

    @pytest.mark.parametrize("line", ['{"id": 1} x', '{"id": 1}   {}', "{", '\ufeff{"id": 1}'])
    def test_bad_json_is_named_as_json_loads_names_it(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        with pytest.raises(InputError) as caught:
            load_jsonl(path)
        assert str(caught.value) == f"{path}: bad JSON on line 2: {expected.value}"


class TestAdapters:
    def test_squad_like_anchors_by_char_hint(self):
        desc = DatasetDescriptor(str(DATA_DIR / "squad_like.json"), format="squad_like")
        result = load_dataset(desc)
        assert len(result.instances) == 1 and len(result.skipped) == 1
        inst = result.instances[0]
        assert inst.id == "sq-1"
        assert inst.gold_answers[0].text == "Hawaii"
        assert inst.gold_answers[0].sentence_index == 1
        # answer sentence gets the supporting flag
        assert inst.context[1].is_supporting_fact
        assert not inst.context[0].is_supporting_fact

    def test_squad_like_unanchorable_answer_reported(self):
        desc = DatasetDescriptor(str(DATA_DIR / "squad_like.json"), format="squad_like")
        result = load_dataset(desc)
        (skip,) = result.skipped
        assert skip.record_index == 1
        assert "Kenya" in skip.reason

    def test_quoref_like_builds_clusters(self):
        desc = DatasetDescriptor(str(DATA_DIR / "quoref_like.json"), format="quoref_like")
        result = load_dataset(desc)
        (inst,) = result.instances
        assert len(inst.coref_clusters) == 1
        mentions = [m.text for m in inst.coref_clusters[0]]
        assert mentions == ["Barack Obama", "He"]

    def test_hotpot_like_supporting_facts_and_titles(self):
        desc = DatasetDescriptor(str(DATA_DIR / "hotpot_like.json"), format="hotpot_like")
        result = load_dataset(desc)
        (inst,) = result.instances
        assert inst.id == "hp-1"
        assert [s.paragraph_id for s in inst.context] == [
            "Blind Shaft",
            "Blind Shaft",
            "The Mask Of Fu Manchu",
            "The Mask Of Fu Manchu",
        ]
        assert [s.is_supporting_fact for s in inst.context] == [True, False, True, False]
        gold = inst.gold_answers[0]
        assert gold.text == "The Mask Of Fu Manchu" and gold.sentence_index == 2

    def test_wiki2hop_like_marks_answer_sentence(self):
        desc = DatasetDescriptor(str(DATA_DIR / "wiki2hop_like.json"), format="wiki2hop_like")
        result = load_dataset(desc)
        (inst,) = result.instances
        assert len(inst.context) == 3  # first support splits into two sentences
        gold = inst.gold_answers[0]
        assert gold.text == "Quail Crossing"
        assert inst.context[gold.sentence_index].is_supporting_fact

    def test_malformed_record_aborts_with_index(self, tmp_path):
        doc = {"data": [{"paragraphs": [{"context": "A thing.", "qas": [{"id": "x", "question": "Q?"}]}]}]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        desc = DatasetDescriptor(str(path), format="squad_like")
        with pytest.raises(InputError, match="record 0"):
            load_dataset(desc)

    def test_blank_question_aborts_with_index(self, tmp_path):
        records = json.loads((DATA_DIR / "hotpot_like.json").read_text())
        records.append(dict(records[0], _id="hp-2", question="   "))
        path = tmp_path / "blank.json"
        path.write_text(json.dumps(records))
        desc = DatasetDescriptor(str(path), format="hotpot_like")
        with pytest.raises(InputError) as caught:
            load_dataset(desc)
        assert str(caught.value) == f"{path}: malformed record 1: empty question"

    def test_missing_file_is_input_error(self):
        desc = DatasetDescriptor("/definitely/not/here.json")
        with pytest.raises(InputError, match="not found"):
            load_dataset(desc)

    def test_unknown_format_rejected(self):
        with pytest.raises(InputError):
            DatasetDescriptor("x.json", format="csv")


class TestContextModes:
    def test_supporting_facts_reduction_remaps_gold(self):
        inst = build_instance(
            "r-1",
            "Who was born in Hawaii?",
            [
                "Filler sentence about nothing.",
                "Barack Obama was the 44th president of the US.",
                "He was born in Hawaii.",
            ],
            gold=(2, "Hawaii"),
            supporting=[False, True, True],
        )
        reduced = reduce_context(inst, "supporting_facts")
        assert len(reduced.context) == 2
        gold = reduced.gold_answers[0]
        assert gold.sentence_index == 1
        assert reduced.span_surface(gold.token_start, gold.token_end) == "Hawaii"

    def test_paragraphs_mode_is_identity(self, corpus):
        for inst in corpus:
            assert reduce_context(inst, "paragraphs") is inst

    def test_gold_outside_supporting_facts_is_error(self):
        inst = build_instance(
            "r-2",
            "Who sang?",
            ["Maria Duval sang.", "The hall was full."],
            gold=(0, "Maria Duval"),
            supporting=[False, True],
        )
        with pytest.raises(InputError, match="outside the supporting facts"):
            reduce_context(inst, "supporting_facts")

    def test_loader_skips_gold_outside_supporting(self, tmp_path):
        inst = build_instance(
            "r-3",
            "Who sang?",
            ["Maria Duval sang.", "The hall was full."],
            gold=(0, "Maria Duval"),
            supporting=[False, True],
        )
        path = tmp_path / "uni.jsonl"
        save_jsonl([inst], path)
        desc = DatasetDescriptor(str(path), context_mode="supporting_facts")
        result = load_dataset(desc)
        assert len(result.instances) == 0 and len(result.skipped) == 1
        assert result.skipped[0].instance_id == "r-3"
        assert "outside the supporting facts" in result.skipped[0].reason

    def test_cluster_mentions_outside_reduction_dropped(self):
        inst = build_instance(
            "r-4",
            "Who founded the mountain observatory?",
            [
                "Elena Vasquez arrived in Chile in 1962.",
                "She founded the mountain observatory.",
                "Elena Vasquez wrote about the southern sky.",
            ],
            gold=(0, "Elena Vasquez"),
            mentions=[(0, "Elena Vasquez"), (1, "She"), (2, "Elena Vasquez")],
            supporting=[True, True, False],
        )
        reduced = reduce_context(inst, "supporting_facts")
        assert len(reduced.coref_clusters[0]) == 2
        assert reduced.relevant_cluster == 0

    def test_bundled_corpus_loads_in_both_modes(self):
        from rcaudit.data import fixture_corpus_path

        for mode in ("paragraphs", "supporting_facts"):
            desc = DatasetDescriptor(str(fixture_corpus_path()), context_mode=mode)
            result = load_dataset(desc)
            assert len(result.instances) == 20 and len(result.skipped) == 0


def count_validations(monkeypatch) -> list[RCInstance]:
    """Record every instance whose structure is checked: by the schema's
    decoder, or by `validate_instance` for what the loader built or changed."""
    seen: list[RCInstance] = []

    def spy(instance):
        seen.append(instance)
        return check_structure(instance)

    monkeypatch.setattr(schema_module, "check_structure", spy)
    monkeypatch.setattr(types_module, "check_structure", spy)
    return seen


class TestDuplicateIds:
    def test_unified_duplicate_aborts_naming_both_records(self, tmp_path):
        corpus = make_synthetic_corpus(40, 3)
        corpus[15] = replace(corpus[15], id="syn-3-0003")
        path = tmp_path / "dup.jsonl"
        save_jsonl(corpus, path)
        with pytest.raises(InputError) as caught:
            load_dataset(DatasetDescriptor(str(path)))
        assert str(caught.value) == f"{path}: duplicate instance id 'syn-3-0003' in records 3 and 15"

    def test_adapter_duplicate_aborts_naming_both_records(self, tmp_path):
        records = json.loads((DATA_DIR / "hotpot_like.json").read_text())
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(records + records))
        with pytest.raises(InputError) as caught:
            load_dataset(DatasetDescriptor(str(path), format="hotpot_like"))
        assert str(caught.value) == f"{path}: duplicate instance id 'hp-1' in records 0 and 1"


class TestValidatedOnce:
    def test_each_unified_record_is_validated_once(self, monkeypatch, corpus):
        seen = count_validations(monkeypatch)
        desc = DatasetDescriptor(str(fixture_corpus_path()))
        result = load_dataset(desc)
        assert len(result.instances) == len(corpus) == 20
        assert [inst.id for inst in seen] == [inst.id for inst in corpus]

    def test_a_reduced_instance_is_validated_again(self, monkeypatch, tmp_path):
        inst = build_instance(
            "r-5",
            "Who was born in Hawaii?",
            ["Filler sentence about nothing.", "He was born in Hawaii."],
            gold=(1, "Hawaii"),
            supporting=[False, True],
        )
        path = tmp_path / "uni.jsonl"
        save_jsonl([inst], path)
        seen = count_validations(monkeypatch)
        result = load_dataset(DatasetDescriptor(str(path), context_mode="supporting_facts"))
        (reduced,) = result.instances
        assert len(reduced.context) == 1
        assert [i.id for i in seen] == ["r-5", "r-5"]
        assert seen[0] is not reduced and seen[1] is reduced

    def test_an_unchanged_instance_is_not_validated_again(self, monkeypatch, tmp_path):
        inst = build_instance("r-6", "Who sang?", ["Maria Duval sang."], gold=(0, "Maria Duval"))
        path = tmp_path / "uni.jsonl"
        save_jsonl([inst], path)
        seen = count_validations(monkeypatch)
        result = load_dataset(DatasetDescriptor(str(path), context_mode="supporting_facts"))
        assert len(result.instances) == 1 and len(seen) == 1

    def test_a_bad_adapter_record_is_skipped(self, monkeypatch, tmp_path):
        good = build_instance("a-1", "Who sang?", ["Maria Duval sang."], gold=(0, "Maria Duval"))
        drifted = replace(good.gold_answers[0], text="Ira Boone")
        bad = replace(good, id="a-0", gold_answers=(drifted,))
        monkeypatch.setitem(
            loader_module.FORMAT_ADAPTERS, "hotpot_like", lambda doc: iter([(0, lambda: bad), (1, lambda: good)])
        )
        path = tmp_path / "native.json"
        path.write_text("[]")
        seen = count_validations(monkeypatch)
        result = load_dataset(DatasetDescriptor(str(path), format="hotpot_like"))
        assert result.instances == [good]
        (skip,) = result.skipped
        assert (skip.record_index, skip.instance_id) == (0, "a-0")
        assert "does not match context" in skip.reason
        assert seen == [bad, good]


class TestFilters:
    def test_operator_matches_storage(self, corpus):
        for inst in corpus:
            if inst.skill != "comparison":
                continue
            operator = match_operator(inst)
            assert operator == inst.annotations.comparison_operator

    def test_longest_match_wins(self):
        # "earlier" comes first in the operator list and in the question.
        inst = build_instance(
            "f-1",
            "Did Blind Shaft come out earlier or more recently than The Mask Of Fu Manchu?",
            ["Blind Shaft is a 2003 film.", "The Mask Of Fu Manchu is a 1932 film."],
            gold=(0, "Blind Shaft"),
        )
        operator = match_operator(inst)
        texts = sorted(inst.question[i].text for i in operator)
        assert texts == ["more", "recently"]

    def test_ood_table_covers_exactly_the_operators(self):
        assert set(OUT_OF_DISTRIBUTION_TABLE.entries) == {op for op, _ in OPERATOR_ANTONYMS}

    def test_synthetic_corpus_cycles_through_every_operator(self):
        corpus = make_synthetic_corpus(6)
        used = [
            " ".join(inst.question[i].text for i in sorted(inst.annotations.comparison_operator))
            for inst in corpus
        ]
        assert used == [op for op, _ in OPERATOR_ANTONYMS]

    def test_no_comparative_dropped(self):
        inst = build_instance(
            "f-2", "Who was born in Hawaii?", ["Barack Obama was born in Hawaii."],
            gold=(0, "Barack Obama"),
        )
        assert filter_comparison([inst]) == []

    def test_coref_filter_requires_answer_in_cluster(self):
        inst = build_instance(
            "f-3",
            "Who was born in Hawaii?",
            ["Barack Obama was the 44th president of the US.", "He was born in Hawaii."],
            gold=(0, "Barack Obama"),
        )
        hawaii = (span_at(inst.context, 1, "Hawaii"),)
        # the instance's only cluster holds no mention of the gold answer
        assert filter_coref_answer_in_cluster([replace(inst, coref_clusters=(hawaii,))]) == []
        obama = (span_at(inst.context, 0, "Barack Obama"), span_at(inst.context, 1, "He"))
        (kept,) = filter_coref_answer_in_cluster([replace(inst, coref_clusters=(hawaii, obama))])
        assert kept.skill == "coreference" and kept.relevant_cluster == 1

    def test_coref_filter_records_first_matching_cluster(self, corpus_by_id):
        inst = corpus_by_id["cor-01"]
        assert inst.skill == "coreference"
        assert inst.relevant_cluster == 0


class TestAnnotate:
    def test_annotation_sets_disjoint(self, corpus):
        for inst in corpus:
            if inst.skill != "comparison":
                continue
            sets = inst.annotations.all_sets()
            flat = [i for s in sets for i in s]
            assert len(flat) == len(set(flat)), inst.id

    def test_expected_annotation_on_reference_question(self, corpus_by_id):
        inst = corpus_by_id["cmp-01"]
        ann = inst.annotations
        q = [t.text for t in inst.question]
        assert sorted(q[i] for i in ann.comparison_operator) == ["earlier"]
        entity_surfaces = {
            " ".join(q[i] for i in sorted(e)) for e in ann.compared_entities
        }
        assert entity_surfaces == {"Blind Shaft", "The Mask Of Fu Manchu"}
        assert sorted(q[i] for i in ann.verb_tokens) == ["came", "out"]

    def test_value_tokens_are_digit_bearing(self, corpus_by_id):
        inst = corpus_by_id["cmp-09"]
        q = [t.text for t in inst.question]
        assert sorted(q[i] for i in inst.annotations.value_tokens) == ["1994"]

    def test_single_entity_flags_unannotatable(self):
        inst = build_instance(
            "a-1",
            "Which came first, the chicken or an egg?",
            ["The chicken crossed. An egg rolled."],
            gold=(0, "chicken"),
        )
        kept = filter_comparison([inst])
        annotated = annotate_question(kept[0])
        assert annotated.unannotatable

    def test_requires_comparison_skill(self):
        inst = build_instance(
            "a-2", "Who was born in Hawaii?", ["Barack Obama was born in Hawaii."],
            gold=(0, "Barack Obama"),
        )
        with pytest.raises(InputError):
            annotate_question(inst)

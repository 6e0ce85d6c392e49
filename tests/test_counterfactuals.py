"""Counterfactual pairs: antonym swaps, manual cluster insertions, validation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from conftest import build_instance, span_at
from rcaudit.counterfactuals import (
    ANTONYM_TABLES,
    CFPair,
    AntonymTable,
    build_antonym_twin,
    cf_accuracy,
    load_cf_pairs,
    perturb_comparison,
    plan_antonym_swap,
    save_cf_pairs,
    validate_cf,
)
from rcaudit.data import coref_cf_pairs_path
from rcaudit.errors import InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.base import predict
from rcaudit.metrics import exact_match, normalize_answer, token_f1
from rcaudit.text import make_sentence
from rcaudit.types import EvalResult

IN_DIST = ANTONYM_TABLES["in_dist"]
OOD = ANTONYM_TABLES["ood"]

SYMMETRIC_IDS = ("cmp-01", "cmp-03", "cmp-05", "cmp-06", "cmp-07", "cmp-08")


def question_words(instance, indices) -> str:
    return " ".join(instance.question[i].text for i in sorted(indices))


class TestAntonymSwap:
    def test_worked_example(self, corpus_by_id):
        inst = corpus_by_id["cmp-01"]
        pair = perturb_comparison(inst, IN_DIST)
        assert pair.replaced_operator == ("earlier", "later")
        assert pair.perturbed.question_text == (
            "Which film came out later, Blind Shaft or The Mask Of Fu Manchu?"
        )
        assert pair.perturbed.id == "cmp-01::cf"
        assert inst.gold_answers[0].text == "The Mask Of Fu Manchu"
        assert pair.perturbed.gold_answers[0].text == "Blind Shaft"
        assert [t.text for s in pair.perturbed.context for t in s.tokens] == [
            t.text for s in inst.context for t in s.tokens
        ]
        assert validate_cf(pair) == []

    def test_multi_word_replacement_shifts_annotations(self, corpus_by_id):
        inst = corpus_by_id["cmp-03"]  # operator "later", one word
        pair = perturb_comparison(inst, OOD)
        assert pair.replaced_operator[1] == "less recently"
        assert pair.distribution_tag == "out_of_distribution"
        assert "less recently" in pair.perturbed.question_text
        old_ann, new_ann = inst.annotations, pair.perturbed.annotations
        assert question_words(pair.perturbed, new_ann.comparison_operator) == "less recently"
        for old_entity, new_entity in zip(old_ann.compared_entities, new_ann.compared_entities):
            assert question_words(inst, old_entity) == question_words(pair.perturbed, new_entity)
        assert validate_cf(pair) == []

    def test_ood_replacements_keep_their_meaning_apart(self):
        # A surface listed for both an operator and its antonym would flip
        # the gold answer of one of them while keeping the question's sense.
        for operator, replacements in OOD.entries.items():
            (antonym,) = IN_DIST.entries[operator]
            shared = set(replacements) & set(OOD.entries[antonym])
            assert not shared, (operator, antonym, shared)

    def test_shrinking_replacement_shifts_left(self, corpus_by_id):
        inst = corpus_by_id["cmp-02"]  # operator "more recently", two words
        pair = perturb_comparison(inst, IN_DIST)  # -> "earlier", one word
        assert pair.replaced_operator == ("more recently", "earlier")
        old_ann, new_ann = inst.annotations, pair.perturbed.annotations
        for old_entity, new_entity in zip(old_ann.compared_entities, new_ann.compared_entities):
            assert question_words(inst, old_entity) == question_words(pair.perturbed, new_entity)
        assert validate_cf(pair) == []

    def test_double_application_restores_symmetric_operators(self, corpus_by_id):
        for iid in SYMMETRIC_IDS:
            inst = corpus_by_id[iid]
            once = perturb_comparison(inst, IN_DIST)
            twice = perturb_comparison(once.perturbed, IN_DIST)
            assert twice.perturbed.question_text == inst.question_text  # byte identical
            assert [t.text for t in twice.perturbed.question] == [t.text for t in inst.question]
            back = twice.perturbed.gold_answers[0]
            orig = inst.gold_answers[0]
            assert (back.text, back.token_start, back.token_end) == (
                orig.text,
                orig.token_start,
                orig.token_end,
            )

    def test_all_bundled_comparisons_validate_under_both_tables(self, corpus):
        checked = 0
        for inst in corpus:
            if inst.skill != "comparison":
                continue
            for table in (IN_DIST, OOD):
                pair = perturb_comparison(inst, table)
                assert validate_cf(pair) == []
                assert pair.distribution_tag == table.distribution_tag
            checked += 1
        assert checked == 10

    def test_twin_takes_the_tables_first_candidate(self, corpus):
        # "older" and "younger" have four candidates in the OOD table
        for inst in corpus:
            if inst.skill != "comparison":
                continue
            for table in (IN_DIST, OOD):
                old, new = perturb_comparison(inst, table).replaced_operator
                assert new == table.entries[old.casefold()][0]

    def test_rejects_non_comparison_instances(self, corpus_by_id):
        with pytest.raises(InputError, match="comparison"):
            perturb_comparison(corpus_by_id["cor-01"], IN_DIST)

    def test_rejects_gold_that_names_neither_entity(self, corpus_by_id):
        inst = corpus_by_id["cmp-01"]
        year = replace(inst, gold_answers=(span_at(inst.context, 1, "1932"),))
        with pytest.raises(InputError, match="neither"):
            perturb_comparison(year, IN_DIST)

    def test_rejects_an_empty_compared_entity(self, corpus_by_id):
        inst = corpus_by_id["cmp-01"]
        entities = (frozenset(), inst.annotations.compared_entities[1])
        emptied = replace(inst, annotations=replace(inst.annotations, compared_entities=entities))
        with pytest.raises(InputError, match="cmp-01: annotation token set is empty"):
            perturb_comparison(emptied, IN_DIST)

    def test_rejects_operator_missing_from_table(self, corpus_by_id):
        table = AntonymTable(entries={"later": ("earlier",)}, distribution_tag="in_distribution")
        with pytest.raises(InputError, match="not in the"):
            perturb_comparison(corpus_by_id["cmp-01"], table)

    def test_the_plan_checks_the_original_alone(self, corpus_by_id):
        inst = corpus_by_id["cmp-01"]
        year = replace(inst, gold_answers=(span_at(inst.context, 1, "1932"),))
        entities = (frozenset(), inst.annotations.compared_entities[1])
        emptied = replace(inst, annotations=replace(inst.annotations, compared_entities=entities))
        missing = AntonymTable(entries={"later": ("earlier",)}, distribution_tag="in_distribution")
        for bad, table in ((corpus_by_id["cor-01"], IN_DIST), (year, IN_DIST),
                           (emptied, IN_DIST), (inst, missing)):
            with pytest.raises(InputError) as planned:
                plan_antonym_swap(bad, table)
            with pytest.raises(InputError) as perturbed:
                perturb_comparison(bad, table)
            assert str(planned.value) == str(perturbed.value)
        for inst in corpus_by_id.values():
            if inst.skill == "comparison":
                for table in (IN_DIST, OOD):
                    plan = plan_antonym_swap(inst, table)
                    assert build_antonym_twin(plan) == perturb_comparison(inst, table)

    def test_table_validation(self):
        with pytest.raises(InputError, match="no replacements"):
            AntonymTable(entries={"earlier": ()}, distribution_tag="in_distribution")
        with pytest.raises(InputError, match="itself"):
            AntonymTable(entries={"earlier": ("earlier",)}, distribution_tag="in_distribution")
        with pytest.raises(InputError, match="distribution tag"):
            AntonymTable(entries={"earlier": ("later",)}, distribution_tag="weird")


class TestValidateCf:
    def insertion_pair(self):
        orig = build_instance(
            "v-1",
            "Who sang the anthem?",
            ["Ana Reyes sang the anthem.", "The crowd cheered."],
            gold=(0, "Ana Reyes"),
        )
        pert = build_instance(
            "v-1",
            "Who sang the anthem?",
            ["Ana Reyes sang the anthem.", "Ira Boone sang it again.", "The crowd cheered."],
            gold=(1, "Ira Boone"),
        )
        return CFPair(
            original=orig,
            perturbed=replace(pert, id="v-1::cf"),
            perturbation="cluster_insertion",
            distribution_tag="in_distribution",
        )

    def test_well_formed_insertion_passes(self):
        assert validate_cf(self.insertion_pair()) == []

    def test_label_must_change(self):
        pair = self.insertion_pair()
        same = replace(
            pair, perturbed=replace(pair.perturbed, gold_answers=pair.original.gold_answers)
        )
        assert any("label did not change" in v for v in validate_cf(same))

    def test_original_answer_must_survive(self):
        pair = self.insertion_pair()
        gone = build_instance(
            "v-1",
            "Who sang the anthem?",
            ["Ira Boone sang it again.", "The crowd cheered."],
            gold=(0, "Ira Boone"),
        )
        broken = replace(pair, perturbed=replace(gone, id="v-1::cf"))
        assert any("missing from perturbed context" in v for v in validate_cf(broken))

    def test_new_answer_span_must_match_its_text(self):
        pair = self.insertion_pair()
        gold = pair.perturbed.gold_answers[0]
        drifted = replace(gold, token_start=gold.token_start + 1, token_end=gold.token_end + 1)
        broken = replace(pair, perturbed=replace(pair.perturbed, gold_answers=(drifted,)))
        assert any("does not match its span" in v for v in validate_cf(broken))

    def test_insertion_must_not_touch_the_question(self):
        pair = self.insertion_pair()
        other_q = build_instance(
            "v-1",
            "Who repeated the anthem?",
            ["Ana Reyes sang the anthem.", "Ira Boone sang it again.", "The crowd cheered."],
            gold=(1, "Ira Boone"),
        )
        broken = replace(pair, perturbed=replace(other_q, id="v-1::cf"))
        assert any("question changed" in v for v in validate_cf(broken))

    def test_swap_must_not_touch_the_context(self, corpus_by_id):
        pair = perturb_comparison(corpus_by_id["cmp-01"], IN_DIST)
        edited_context = self.insertion_pair().perturbed.context
        broken = replace(pair, perturbed=replace(pair.perturbed, context=edited_context))
        violations = validate_cf(broken)
        assert any("context changed under antonym swap" in v for v in violations)

    def test_swap_context_is_compared_word_for_word(self, corpus_by_id):
        pair = perturb_comparison(corpus_by_id["cmp-01"], IN_DIST)
        assert pair.perturbed.context is pair.original.context
        copied = tuple(list(pair.original.context))
        assert copied is not pair.original.context
        same_words = replace(pair, perturbed=replace(pair.perturbed, context=copied))
        assert validate_cf(same_words) == []
        last = copied[-1]
        reworded = make_sentence(last.text.replace(last.tokens[0].text, "Nobody", 1))
        changed = replace(pair, perturbed=replace(pair.perturbed, context=copied[:-1] + (reworded,)))
        assert "context changed under antonym swap" in validate_cf(changed)

    def test_swap_operator_bookkeeping_is_checked(self, corpus_by_id):
        pair = perturb_comparison(corpus_by_id["cmp-01"], IN_DIST)
        misremembered = replace(pair, replaced_operator=("earlier", "sooner"))
        assert any("operator positions" in v for v in validate_cf(misremembered))
        missing = replace(pair, replaced_operator=None)
        assert any("lacks replaced_operator" in v for v in validate_cf(missing))


class TestFileRoundTrip:
    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("in_dist", "603b748c7f44c190481e293f554f2d7d772e6be2604ba3ea768fdf40a830b353"),
            ("ood", "444a402cb5ec689237487ff1ccf21285eb35a5f440068906e130ef2252504c74"),
            ("coref", "6ca4be064c2405d6a07afeba2b08b87e7ecbe17fe1fd457c804d6d15e33f9e0e"),
        ],
    )
    def test_cf_file_bytes_are_pinned(self, tmp_path, corpus, manual_pairs, kind, digest):
        if kind == "coref":
            pairs = manual_pairs
        else:
            comparisons = [inst for inst in corpus if inst.skill == "comparison"]
            pairs = [perturb_comparison(inst, ANTONYM_TABLES[kind]) for inst in comparisons]
        assert len(pairs) == 10
        path = tmp_path / "pairs.jsonl"
        save_cf_pairs(pairs, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_cluster_pairs_round_trip(self, tmp_path, corpus, manual_pairs):
        path = tmp_path / "coref.jsonl"
        save_cf_pairs(manual_pairs, path)
        loaded = load_cf_pairs(path, corpus)
        assert len(loaded) == len(manual_pairs)
        for before, after in zip(manual_pairs, loaded):
            assert [s.text for s in after.perturbed.context] == [
                s.text for s in before.perturbed.context
            ]
            assert [s.is_supporting_fact for s in after.perturbed.context] == [
                s.is_supporting_fact for s in before.perturbed.context
            ]
            assert after.perturbed.gold_answers == before.perturbed.gold_answers

    def test_load_rejects_unknown_original(self, tmp_path, corpus, manual_pairs):
        path = tmp_path / "coref.jsonl"
        save_cf_pairs(manual_pairs, path)
        text = path.read_text().replace("cor-01", "cor-99")
        path.write_text(text)
        with pytest.raises(InputError, match="unknown original"):
            load_cf_pairs(path, corpus)
        path.write_text(text.replace('"cor-99"', '["cor-01"]'))  # not hashable
        with pytest.raises(InputError, match=r"unknown original instance \['cor-01'\]"):
            load_cf_pairs(path, corpus)

    def test_load_rejects_invalid_pairs(self, tmp_path, corpus, manual_pairs):
        path = tmp_path / "coref.jsonl"
        save_cf_pairs(manual_pairs, path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])  # shift the first record's answer span off its text
        doc["new_answer"]["tok_start"] += 1
        doc["new_answer"]["tok_end"] += 1
        path.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
        with pytest.raises(InputError, match="invalid counterfactual pairs"):
            load_cf_pairs(path, corpus)

    def test_load_reports_malformed_records_and_bad_json(self, tmp_path, corpus):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"original_id": "cor-01", "perturbation": "cluster_insertion"}\n')
        with pytest.raises(InputError, match=f"{path}: malformed record for 'cor-01'"):
            load_cf_pairs(path, corpus)
        path.write_text("{nope\n")
        with pytest.raises(InputError, match="bad JSON on line 1"):
            load_cf_pairs(path, corpus)
        path.write_text("\n[1, 2]\n")
        with pytest.raises(InputError, match=f"{path}: line 2 is not a JSON object"):
            load_cf_pairs(path, corpus)

    def test_load_refuses_a_second_record_for_an_original(self, tmp_path, corpus):
        lines = coref_cf_pairs_path().read_text().splitlines()
        path = tmp_path / "twice.jsonl"
        path.write_text("\n".join(lines + lines[:1]) + "\n")
        with pytest.raises(InputError) as refused:
            load_cf_pairs(path, corpus)
        assert str(refused.value) == f"{path}: two records for 'cor-01', on lines 1 and 11"

    def test_manual_loader_rejects_antonym_records(
        self, tmp_path, corpus_by_id, corpus, manual_pairs
    ):
        pair = perturb_comparison(corpus_by_id["cmp-01"], IN_DIST)
        path = tmp_path / "mixed.jsonl"
        save_cf_pairs(manual_pairs[:1] + [pair], path)
        with pytest.raises(InputError) as refused:
            load_cf_pairs(path, corpus)
        assert str(refused.value) == (
            f"{path}: record for 'cmp-01' has perturbation 'antonym_swap';"
            " a CF file holds only cluster_insertion pairs"
        )

    def test_load_refuses_records_of_no_known_perturbation(self, tmp_path, corpus):
        path = tmp_path / "odd.jsonl"
        for doc in ({"original_id": "cor-01", "perturbation": "paraphrase"},
                    {"original_id": "cor-99"}):
            path.write_text(json.dumps(doc) + "\n")
            refusal = f"record for {doc['original_id']!r} has perturbation"
            with pytest.raises(InputError, match=refusal):
                load_cf_pairs(path, corpus)


class TestBundledClusterPairs:
    def test_all_ten_validate(self, manual_pairs):
        assert len(manual_pairs) == 10
        for pair in manual_pairs:
            assert pair.perturbation == "cluster_insertion"
            assert pair.distribution_tag == "in_distribution"
            assert pair.perturbed.id == pair.original.id + "::cf"
            assert validate_cf(pair) == []

    def test_old_answer_survives_and_label_flips(self, manual_pairs):
        for pair in manual_pairs:
            old = normalize_answer(pair.original.gold_answers[0].text)
            new = normalize_answer(pair.perturbed.gold_answers[0].text)
            assert old != new
            surfaces = " ".join(t.text for t in pair.perturbed.context_tokens)
            assert pair.original.gold_answers[0].text in surfaces


class TestCfAccuracy:
    def test_position_locked_reader_is_both_correct_everywhere(self, manual_pairs):
        report = cf_accuracy(build_gateway("oracle"), manual_pairs)
        assert report.both_correct == 1.0
        assert report.original.exact_match == 1.0
        assert report.perturbed.exact_match == 1.0
        assert report.original.n_instances == 10

    def test_surface_frequency_reader_fails_every_pair(self, manual_pairs):
        report = cf_accuracy(build_gateway("frequency"), manual_pairs)
        assert report.both_correct == 0.0
        assert report.original.exact_match >= 0.9  # solves the unperturbed task
        assert report.perturbed.exact_match <= 0.1

    def test_antonym_pairs_with_position_locked_reader(self, corpus):
        pairs = [
            perturb_comparison(inst, IN_DIST) for inst in corpus if inst.skill == "comparison"
        ]
        report = cf_accuracy(build_gateway("oracle"), pairs)
        assert report.both_correct == 1.0

    def test_requires_at_least_one_pair(self):
        with pytest.raises(InputError):
            cf_accuracy(build_gateway("oracle"), [])

    def test_scores_pair_by_pair_when_twins_share_an_id(self, corpus):
        # Both tables' twins of one original carry the id `<id>::cf`, with
        # different questions and gold answers: no score may be keyed by id.
        pairs = [
            perturb_comparison(inst, table)
            for inst in corpus
            if inst.skill == "comparison"
            for table in (IN_DIST, OOD)
        ]
        assert len(pairs) == 20 and len({p.perturbed.id for p in pairs}) == 10
        gateway = build_gateway("toy:7")
        sums = {"original": [0.0, 0], "perturbed": [0.0, 0]}
        both = 0
        for pair in pairs:
            right = []
            for side in ("original", "perturbed"):
                instance = getattr(pair, side)
                golds = [a.text for a in instance.gold_answers]
                answer = predict(gateway, instance).predicted_span.text
                sums[side][0] += token_f1(answer, golds)
                sums[side][1] += exact_match(answer, golds)
                right.append(exact_match(answer, golds))
            both += all(right)
        reference = {
            side: EvalResult(f1=f1 / 20, exact_match=em / 20, n_instances=20)
            for side, (f1, em) in sums.items()
        }
        report = cf_accuracy(gateway, pairs)
        assert report.original == reference["original"]
        assert report.perturbed == reference["perturbed"]
        assert report.both_correct == both / 20

"""Token partitions: skill-step colorings, random null draws, validation."""

from __future__ import annotations

from dataclasses import replace

import pytest

import rcaudit.partitions as partitions_module
from conftest import build_instance, span_at
from rcaudit.errors import InputError
from rcaudit.partitions import (
    TokenPartition,
    build_comparison_partition,
    build_coref_partition,
    build_skill_partition,
    check_bounds,
    comparison_side_sizes,
    random_partition,
    seed_for,
)
from rcaudit.synthetic import make_synthetic_corpus


class TestComparisonPartition:
    def test_reference_two_title_question(self, corpus_by_id):
        inst = corpus_by_id["cmp-02"]
        part = build_comparison_partition(inst)
        assert part.scope == "question_tokens"
        assert part.skill_step == "comparison_operation"
        assert part.positive == frozenset({4, 5})  # "more recently"
        assert part.negative == frozenset({0, 1, 9, 15})
        texts = lambda idxs: sorted(inst.question[i].text for i in idxs)
        assert texts(part.positive) == ["more", "recently"]
        assert texts(part.negative) == ["?", "Which", "film", "or"]

    def test_comma_belongs_to_neither_side(self, corpus_by_id):
        inst = corpus_by_id["cmp-02"]
        part = build_comparison_partition(inst)
        comma = next(i for i, t in enumerate(inst.question) if t.text == ",")
        assert comma not in part.positive
        assert comma not in part.negative

    def test_question_mark_stays_negative(self, corpus_by_id):
        inst = corpus_by_id["cmp-02"]
        part = build_comparison_partition(inst)
        qmark = next(i for i, t in enumerate(inst.question) if t.text == "?")
        assert qmark in part.negative

    def test_value_tokens_are_excluded(self, corpus_by_id):
        inst = corpus_by_id["cmp-09"]
        part = build_comparison_partition(inst)
        year = next(i for i, t in enumerate(inst.question) if t.text == "1994")
        assert inst.annotations.value_tokens == frozenset({year})
        assert year not in part.positive
        assert year not in part.negative
        assert part.positive == frozenset({6, 7})
        assert part.negative == frozenset({0, 1, 2, 5, 11, 14})

    def test_every_bundled_comparison_instance_partitions(self, corpus):
        done = 0
        for inst in corpus:
            if inst.skill != "comparison":
                continue
            part = build_comparison_partition(inst)
            assert part.positive and part.negative
            assert not part.positive & part.negative
            done += 1
        assert done == 10

    def test_unannotatable_instance_is_rejected(self):
        inst = build_instance(
            "solo",
            "Which festival happened earlier than the storm?",
            ["The festival happened in 1901.", "The storm came in 1902."],
            gold=(0, "1901"),
            annotate=True,
        )
        assert inst.unannotatable
        with pytest.raises(InputError):
            build_comparison_partition(inst)

    def test_wrong_skill_and_missing_annotations(self, corpus_by_id):
        with pytest.raises(InputError, match="skill"):
            build_comparison_partition(corpus_by_id["cor-01"])
        bare = replace(corpus_by_id["cmp-01"], annotations=None)
        with pytest.raises(InputError, match="annotation"):
            build_comparison_partition(bare)

    def test_partition_is_a_function_of_the_annotated_question(self, corpus_by_id):
        inst = corpus_by_id["cmp-02"]
        rebuilt = build_instance(
            "cmp-02",
            inst.question_text,
            [" ".join(t.text for t in s.tokens) for s in inst.context],
            gold=(0, "Blind Shaft"),
            annotate=True,
        )
        fresh = build_comparison_partition(rebuilt)
        original = build_comparison_partition(inst)
        assert fresh.positive == original.positive
        assert fresh.negative == original.negative


def built_sizes(instance) -> tuple[int, int] | str:
    """The side sizes of the built comparison partition, or its error."""
    try:
        part = build_comparison_partition(instance)
    except InputError as exc:
        return str(exc)
    return len(part.positive), len(part.negative)


def counted_sizes(instance) -> tuple[int, int] | str:
    try:
        return comparison_side_sizes(instance)
    except InputError as exc:
        return str(exc)


class TestComparisonSideSizes:
    def variants(self, inst):
        """The instance, and copies that each break one rule of the build."""
        ann = inst.annotations
        words = inst.question_words
        comma = words.index(",")
        everything = frozenset(range(len(words))) - ann.comparison_operator
        yield inst
        yield replace(inst, skill="coreference")
        yield replace(inst, annotations=None)
        yield replace(inst, annotations=replace(ann, comparison_operator=frozenset()))
        yield replace(inst, unannotatable=True)
        for index in (len(words), 99, -1):
            operator = ann.comparison_operator | {index}
            yield replace(inst, annotations=replace(ann, comparison_operator=operator))
        yield replace(inst, annotations=replace(ann, verb_tokens=ann.verb_tokens | {comma}))
        yield replace(inst, annotations=replace(ann, value_tokens=frozenset({-2, 50})))
        yield replace(inst, annotations=replace(ann, value_tokens=everything))
        both = replace(ann, comparison_operator=ann.comparison_operator | {99},
                       value_tokens=everything)
        yield replace(inst, annotations=both)

    def test_sizes_and_faults_are_the_builds(self, corpus):
        comparisons = [i for i in corpus if i.skill == "comparison"]
        comparisons += make_synthetic_corpus(60, 4)
        outcomes = set()
        for inst in comparisons:
            for variant in self.variants(inst):
                expected = built_sizes(variant)
                assert counted_sizes(variant) == expected, variant.id
                outcomes.add(expected if isinstance(expected, str) else "sizes")
        assert {reason.split(": ", 1)[1] for reason in outcomes - {"sizes"}} >= {
            "comparison partition needs the comparison skill",
            "missing operator annotation",
            "flagged un-annotatable",
            "comparison partition has an empty negative side",
        }
        assert any("outside question_tokens" in reason for reason in outcomes)

    def test_sizes_build_no_partition(self, corpus_by_id, monkeypatch):
        def refuse(*args):
            raise AssertionError("a side was built")

        monkeypatch.setattr(partitions_module, "TokenPartition", refuse)
        assert comparison_side_sizes(corpus_by_id["cmp-02"]) == (2, 4)


class TestCorefPartition:
    def test_reference_cluster_coloring(self, corpus_by_id):
        inst = corpus_by_id["cor-01"]
        part = build_coref_partition(inst)
        assert part.scope == "context_tokens"
        assert part.skill_step == "coreference_resolution"
        assert part.positive == frozenset({0, 1, 10})  # Barack, Obama, He
        assert part.negative == frozenset({3, 4, 5, 6, 7, 8, 9, 15})
        neg_texts = sorted(inst.context_tokens[i].text for i in part.negative)
        assert neg_texts == [".", ".", "44th", "US", "of", "president", "the", "the"]

    def test_question_word_exclusion_casefolds(self):
        inst = build_instance(
            "cf-case",
            "Who was born in Hawaii?",
            ["Lena Brandt was born in HAWAII.", "She kept bees all year."],
            gold=(0, "Lena Brandt"),
            mentions=[(0, "Lena Brandt"), (1, "She")],
        )
        part = build_coref_partition(inst)
        shouting = next(i for i, t in enumerate(inst.context_tokens) if t.text == "HAWAII")
        assert shouting not in part.negative
        assert shouting not in part.positive

    def test_every_bundled_coref_instance_partitions(self, corpus):
        done = 0
        for inst in corpus:
            if inst.skill != "coreference":
                continue
            part = build_coref_partition(inst)
            assert part.positive and part.negative
            done += 1
        assert done == 10

    def test_requires_coref_skill_and_recorded_cluster(self, corpus_by_id):
        with pytest.raises(InputError, match="skill"):
            build_coref_partition(corpus_by_id["cmp-01"])
        orphan = replace(corpus_by_id["cor-01"], relevant_cluster=None)
        with pytest.raises(InputError, match="cluster"):
            build_coref_partition(orphan)

    def test_explicit_cluster_override(self, corpus_by_id):
        inst = corpus_by_id["cor-01"]
        extra = (span_at(inst.context, 0, "the US"),)
        two = replace(inst, coref_clusters=inst.coref_clusters + (extra,))
        part = build_coref_partition(replace(two, relevant_cluster=1))
        assert part.positive == frozenset({7, 8})
        with pytest.raises(InputError, match="cluster"):
            build_coref_partition(replace(two, relevant_cluster=5))

    def test_empty_negative_side_is_an_error(self):
        inst = build_instance(
            "all-overlap",
            "Mira won the race.",
            ["Mira won the race."],
            gold=(0, "Mira"),
            mentions=[(0, "Mira")],
        )
        with pytest.raises(InputError, match="negative"):
            build_coref_partition(inst)


class TestSkillDispatch:
    def test_routes_by_skill(self, corpus_by_id):
        assert build_skill_partition(corpus_by_id["cmp-02"]).skill_step == "comparison_operation"
        assert build_skill_partition(corpus_by_id["cor-01"]).skill_step == "coreference_resolution"

    def test_other_skills_have_no_partition(self):
        inst = build_instance(
            "plain", "Who fixed the clock?", ["Ana fixed the clock."], gold=(0, "Ana")
        )
        with pytest.raises(InputError, match="no partition"):
            build_skill_partition(inst)


class TestRandomPartition:
    def test_deterministic_disjoint_and_sized(self, corpus_by_id):
        inst = corpus_by_id["cmp-02"]  # "more recently": 2 operator words, 4 negatives
        seen = set()
        for draw in range(50):
            seed = seed_for(7, inst.id, draw)
            part = random_partition(inst, seed=seed)
            again = random_partition(inst, seed=seed)
            assert part.positive == again.positive and part.negative == again.negative
            assert len(part.positive) == 2 and len(part.negative) == 4
            assert not part.positive & part.negative
            assert all(0 <= i < inst.n_question for i in part.positive | part.negative)
            assert part.skill_step == "random"
            seen.add((part.positive, part.negative))
        assert len(seen) > 1  # different draws move the sets

    def test_defaults_match_the_skill_partition_sizes(self, corpus_by_id):
        cmp02 = corpus_by_id["cmp-02"]
        skill = build_comparison_partition(cmp02)
        rand = random_partition(cmp02, seed=3)
        assert rand.scope == "question_tokens"
        assert len(rand.positive) == len(skill.positive)
        assert len(rand.negative) == len(skill.negative)

        cor01 = corpus_by_id["cor-01"]
        skill = build_coref_partition(cor01)
        rand = random_partition(cor01, seed=3)
        assert rand.scope == "context_tokens"
        assert len(rand.positive) == len(skill.positive)
        assert len(rand.negative) == len(skill.negative)

    def test_single_token_sides_clamp_up_to_two(self, corpus_by_id):
        cmp01 = corpus_by_id["cmp-01"]  # operator "earlier" is one word
        assert len(build_comparison_partition(cmp01).positive) == 1
        rand = random_partition(cmp01, seed=5)
        assert len(rand.positive) == 2
        assert len(rand.negative) == len(build_comparison_partition(cmp01).negative)

    def test_infeasible_sizes_error(self):
        # no skill partition: a 2 / rest split, both clamped to 2, from 3 words
        inst = build_instance("tiny", "Who won?", ["Ana won."], gold=(0, "Ana"))
        with pytest.raises(InputError, match=r"cannot draw 2\+2 indices from 3"):
            random_partition(inst, seed=0)

    def test_fallback_split_for_other_skills(self):
        inst = build_instance(
            "plain",
            "Who fixed the old clock today?",
            ["Ana fixed the old clock today."],
            gold=(0, "Ana"),
        )
        rand = random_partition(inst, seed=1)
        assert rand.scope == "question_tokens"
        assert len(rand.positive) == 2
        assert len(rand.negative) == inst.n_question - 2

    def test_seed_derivation_is_stable_and_sensitive(self):
        assert seed_for(0, "cmp-01", 0) == seed_for(0, "cmp-01", 0)
        assert seed_for(0, "cmp-01", 0) != seed_for(0, "cmp-01", 1)
        assert seed_for(0, "cmp-01", 0) != seed_for(1, "cmp-01", 0)
        assert seed_for(0, "cmp-01", 0) != seed_for(0, "cmp-02", 0)
        assert 0 <= seed_for(123, "x", 9) < 2**64


class TestPartitionValidation:
    def test_sides_must_be_nonempty_and_disjoint(self):
        with pytest.raises(InputError, match="non-empty"):
            TokenPartition("x", "question_tokens", frozenset(), frozenset({1}), "random")
        with pytest.raises(InputError, match="overlap"):
            TokenPartition("x", "question_tokens", frozenset({1}), frozenset({1, 2}), "random")
        with pytest.raises(InputError, match="skill step"):
            TokenPartition("x", "question_tokens", frozenset({0}), frozenset({1}), "syntax")

    def test_bounds_check_catches_out_of_scope_indices(self, corpus_by_id):
        inst = corpus_by_id["cmp-02"]
        wild = TokenPartition(
            inst.id, "question_tokens", frozenset({0}), frozenset({99}), "random"
        )
        with pytest.raises(InputError, match="outside"):
            check_bounds(wild, inst)

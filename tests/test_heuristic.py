"""Shortcut baseline: sentence selection, typed extraction, frozen answers."""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_DIR, build_instance
from rcaudit.errors import InputError
from rcaudit.heuristic import (
    SELECTION_STRATEGIES,
    _lcs_length,
    embed_sentence,
    extract_phrase,
    heuristic_answer,
    predict_entity_type,
    recognize_entities,
    select_sentence,
)
from rcaudit.metrics import evaluate_dataset, normalize_answer

PRESIDENT_SENTENCES = [
    "Barack Obama was the 44th president of the US.",
    "He was born in Hawaii.",
]
PRESIDENT_QUESTION = "Who was born in Hawaii?"


def lcs_reference(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


class TestSelectSentence:
    def test_token_overlap_counts_distinct_shared_words(self):
        # sentence 0 shares only "was"; sentence 1 shares 4 distinct words
        assert select_sentence(PRESIDENT_QUESTION, PRESIDENT_SENTENCES, "token_overlap") == 1

    def test_lcs_strategy_worked_example(self):
        q = tuple(normalize_answer(PRESIDENT_QUESTION).split())
        s0 = tuple(normalize_answer(PRESIDENT_SENTENCES[0]).split())
        s1 = tuple(normalize_answer(PRESIDENT_SENTENCES[1]).split())
        assert lcs_reference(q, s0) == 1
        assert lcs_reference(q, s1) == 4
        assert select_sentence(PRESIDENT_QUESTION, PRESIDENT_SENTENCES, "lcs") == 1

    def test_position_always_picks_the_first_sentence(self, corpus):
        for inst in corpus:
            sentences = [s.text for s in inst.context]
            assert select_sentence(inst.question_text, sentences, "position") == 0

    def test_ties_resolve_to_the_earliest_sentence(self):
        assert select_sentence("Who sang?", ["The dog barked.", "The cat sat."]) == 0
        assert select_sentence("Who sang?", ["A song played.", "A song played."], "lcs") == 0

    def test_sentence_encoder_needs_no_plugin(self):
        picked = select_sentence(
            "the red fox jumped",
            ["a dog slept indoors", "the red fox jumped over a log"],
            "sentence_encoder",
        )
        assert picked == 1

    def test_validation(self):
        with pytest.raises(InputError, match="at least one sentence"):
            select_sentence("Who?", [])
        with pytest.raises(InputError, match="strategy"):
            select_sentence("Who?", ["A."], "tfidf")


class TestLcsLength:
    def test_matches_recursive_reference(self):
        rng = random.Random(20240820)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(200):
            a = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            b = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            assert _lcs_length(a, b) == lcs_reference(a, b)

    def test_edges(self):
        assert _lcs_length([], ["a"]) == 0
        assert _lcs_length(["a", "b"], ["a", "b"]) == 2
        assert _lcs_length(["a", "x", "b"], ["a", "b", "x"]) == 2


class TestEntityTypePrediction:
    @pytest.mark.parametrize(
        "question, expected",
        [
            ("Who wrote the letter?", "ENTITY"),
            ("Whom did they call?", "ENTITY"),
            ("Where is the harbor?", "ENTITY"),
            ("When did the war end?", "DATE"),
            ("How many rivers cross the city?", "CARDINAL"),
            ("How much did it cost?", "CARDINAL"),
            ("How did the story end?", "ENTITY"),
            ("Which film came out earlier, A or B?", "ENTITY"),
            ("What year did the bridge open?", "DATE"),
            ("What city hosted the games?", "ENTITY"),
            ("What did he eat?", "ENTITY"),
            ("Name the winner.", "ENTITY"),
            ("WHO wrote it?", "ENTITY"),
        ],
    )
    def test_wh_mapping(self, question, expected):
        assert predict_entity_type(question) == expected

    def test_wh_words_map_only_to_the_labels_the_tagger_emits(self, corpus):
        labels = {label for inst in corpus for s in inst.context for *_, label in recognize_entities(s.text)}
        assert labels == {"ENTITY", "DATE", "CARDINAL"}
        for inst in corpus:
            assert predict_entity_type(inst.question_text) in labels

    def test_documented_misfire_on_team_answers(self):
        # "who" wants an ENTITY, and the first capitalized run is one even
        # when it names the cup rather than the team
        assert predict_entity_type("Who won the World Cup in 2002?") == "ENTITY"
        assert extract_phrase("The 2002 World Cup was won by Brazil.", "ENTITY") == "World Cup"


class TestRuleBasedNER:
    def test_runs_dates_and_cardinals(self):
        text = "Barack Obama visited 3 cities in 2008."
        entities = recognize_entities(text)
        surfaces = [(text[s:e], label) for s, e, label in entities]
        assert surfaces == [("Barack Obama", "ENTITY"), ("3", "CARDINAL"), ("2008", "DATE")]
        assert entities == sorted(entities)

    def test_year_window_and_defaults(self):
        def labels(text):
            return {text[s:e]: label for s, e, label in recognize_entities(text)}

        out = labels("The ship sank in 3019 but 1999 was fine for 123 crews.")
        assert out["3019"] == "CARDINAL"  # outside the 1000..2999 date window
        assert out["1999"] == "DATE"
        assert out["123"] == "CARDINAL"
        assert labels("Karl Voss arrived.")["Karl Voss"] == "ENTITY"

    def test_char_ranges_follow_irregular_spacing(self):
        # a run spans the gaps between its words; a word ends at start + len
        text = "  Ana  Reyes\tsaw 12 o'clock ships in\n1999."
        assert recognize_entities(text) == [
            (2, 12, "ENTITY"), (17, 19, "CARDINAL"), (37, 41, "DATE"),
        ]
        assert text[2:12] == "Ana  Reyes"


class TestExtractPhrase:
    def test_sentence_opening_preposition_is_no_answer(self):
        inst = build_instance(
            "obama",
            "Who was born in Hawaii?",
            ["In 1961 Barack Obama was born in Hawaii."],
            gold=(0, "Barack Obama"),
        )
        for strategy in SELECTION_STRATEGIES:
            assert heuristic_answer(inst, strategy) == "Barack Obama"
        # A run the opener leads loses only the opener.
        assert extract_phrase("In Paris, Ada met Karl.", "ENTITY") == "Paris"

    def test_prefers_the_requested_type(self):
        sentence = "Barack Obama was born in 1961."
        assert extract_phrase(sentence, "DATE") == "1961"
        assert extract_phrase(sentence, "ENTITY") == "Barack Obama"

    def test_any_entity_fallback(self):
        sentence = "Barack Obama was born in 1961."
        assert extract_phrase(sentence, "GPE") == "Barack Obama"

    def test_capitalized_run_and_first_word_fallbacks(self):
        # the tagger labels every capitalized run, so the first run is the
        # any-entity fallback
        assert extract_phrase("Karl met The Glass Orchard cast.", "PERSON") == "Karl"
        assert extract_phrase("the cat sat down.", "PERSON") == "the"
        with pytest.raises(InputError):
            extract_phrase("   ", "PERSON")


class TestHashingEmbedder:
    def test_deterministic_bag_of_words(self):
        a = embed_sentence("the red fox jumped")
        b = embed_sentence("the red fox jumped")
        assert np.array_equal(a, b)
        assert a.shape == (64,)
        assert np.array_equal(embed_sentence("red fox"), embed_sentence("fox red"))
        assert not np.array_equal(embed_sentence("red fox"), embed_sentence("blue whale"))


@pytest.fixture(scope="module")
def expected():
    return json.loads((DATA_DIR / "heuristic_expected.json").read_text())


class TestHeuristicAnswer:
    def test_matches_frozen_snapshot(self, corpus, expected):
        for strategy in SELECTION_STRATEGIES:
            block = expected["strategies"][strategy]
            answers = {inst.id: heuristic_answer(inst, strategy) for inst in corpus}
            assert answers == block["answers"], f"strategy {strategy} drifted"
            result = evaluate_dataset(answers, corpus)
            assert result.exact_match == block["exact_match"]
            assert result.f1 == pytest.approx(block["f1"], abs=1e-9)

    def test_headline_accuracies(self, expected):
        ems = {
            s: expected["strategies"][s]["exact_match"] for s in SELECTION_STRATEGIES
        }
        assert ems == {
            "token_overlap": 0.35,
            "lcs": 0.35,
            "position": 0.85,
            "sentence_encoder": 0.30,
        }

    def test_position_reads_the_giveaway_first_sentence(self, corpus_by_id, expected):
        answers = expected["strategies"]["position"]["answers"]
        assert answers["cor-01"] == "Barack Obama"
        assert answers["cmp-01"] == "Blind Shaft"
        assert heuristic_answer(corpus_by_id["cor-01"], "position") == "Barack Obama"

    def test_config_validation(self, corpus_by_id):
        with pytest.raises(InputError, match="strategy"):
            heuristic_answer(corpus_by_id["cor-01"], "tfidf")

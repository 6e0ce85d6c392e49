"""Tokenizer, sentence, and instance-structure tests."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcaudit.errors import InputError
from rcaudit.text import (
    capitalized_runs,
    find_token_run,
    make_sentence,
    spaced_starts,
    split_sentences,
    split_words,
    words,
)
from rcaudit.types import (
    AnswerSpan,
    QuestionAnnotations,
    RCInstance,
    Sentence,
    sentence_at,
    token_view,
    validate_instance,
)

from conftest import build_instance, span_at


class TestTokenize:
    def test_words_and_punctuation_split(self):
        texts, _ = split_words("Which film came out earlier, Blind Shaft?")
        assert texts == ("Which", "film", "came", "out", "earlier", ",", "Blind", "Shaft", "?")

    def test_apostrophes_stay_in_word(self):
        texts, _ = split_words("Górecki's aunt wasn't there.")
        assert texts == ("Górecki's", "aunt", "wasn't", "there", ".")

    def test_char_offsets_recover_source(self):
        source = "He was born  in Hawaii."
        assert make_sentence(source).text == source

    def test_indices_are_sequential(self):
        toks = token_view(*split_words("a b  c d"))
        assert [t.index for t in toks] == [0, 1, 2, 3]
        assert [t.char_start for t in toks] == [0, 2, 5, 7]

    def test_a_word_split_from_two_texts_is_one_object(self):
        first, _ = split_words("Boats crossed the river.")
        second, _ = split_words("Nobody crossed it.")
        assert first[1] == second[1] == "crossed"
        assert first[1] is second[1]

    def test_empty_text_has_no_tokens(self):
        assert split_words("   ") == ((), ())

    def test_hyphens_are_separate_tokens(self):
        assert split_words("pre-Code film") == (("pre", "-", "Code", "film"), (0, 3, 4, 9))


class TestSentences:
    def test_split_on_terminators(self):
        parts = split_sentences("First things first. Then more? Yes!")
        assert parts == ["First things first.", "Then more?", "Yes!"]

    def test_abbreviation_lowercase_not_split(self):
        # the follow-up fragment starts lowercase, so no boundary
        parts = split_sentences("It cost 3. 50 dollars? no.")
        assert parts[0] == "It cost 3."

    def test_make_sentence_text_roundtrip(self):
        sent = make_sentence("He was born in Hawaii.", supporting=True, paragraph_id="p1")
        assert sent.text == "He was born in Hawaii."
        assert sent.is_supporting_fact and sent.paragraph_id == "p1"

    def test_make_sentence_rejects_empty(self):
        with pytest.raises(ValueError):
            make_sentence("   ")

    def test_spaced_starts_single_spaced(self):
        starts = spaced_starts(["a", "bb", "ccc"])
        assert starts == (0, 2, 5)
        assert Sentence(("a", "bb", "ccc"), starts).text == "a bb ccc"


def loop_find_token_run(haystack, needle_texts):
    """The start-position loop find_token_run ran before it casefolded the
    haystack once per call, kept verbatim as the reference."""
    if not needle_texts:
        return None
    needle = [t.casefold() for t in needle_texts]
    limit = len(haystack) - len(needle)
    for i in range(limit + 1):
        if all(haystack[i + k].text.casefold() == needle[k] for k in range(len(needle))):
            return i
    return None


# Surfaces whose casefolding changes their length or merges them with others.
_FOLD_WORDS = ["ß", "SS", "ss", "İ", "i̇", "i", "ﬁ", "fi", "FI", "a", "A"]


class TestRuns:
    @given(
        st.lists(st.sampled_from(_FOLD_WORDS), max_size=12),
        st.lists(st.sampled_from(_FOLD_WORDS), max_size=4),
    )
    @example(hay=["Straße", "SS"], needle=["STRASSE", "ß"])
    @example(hay=["İstanbul", "x"], needle=["i̇stanbul"])
    @example(hay=["ﬁre", "ﬁ"], needle=["FIRE", "fi"])
    @example(hay=["fi", "ﬁ", "FI"], needle=["Fi"])  # the first of several hits
    @example(hay=["a", "b"], needle=[])  # an empty needle finds nothing
    @example(hay=["a"], needle=["a", "a"])  # a needle longer than the haystack
    @example(hay=[], needle=["a"])
    @example(hay=["a", "a", "b", "a", "a", "a", "b"], needle=["A", "A", "A", "B"])  # repeated partial matches
    @example(hay=["a", "a", "a"], needle=["a", "a", "b"])
    def test_find_token_run_matches_the_loop(self, hay, needle):
        haystack = token_view(hay, spaced_starts(hay))
        assert find_token_run(hay, tuple(needle)) == loop_find_token_run(
            haystack, tuple(needle)
        )

    @given(st.text(alphabet=st.sampled_from(list("aZ9 '.,-?!ßİéñ漢\u2019\t_")), max_size=40))
    @example(text="Górecki's aunt wasn't there.")
    @example(text="'tis o'clock '' x'")
    def test_words_are_the_token_texts(self, text):
        texts, starts = split_words(text)
        assert words(text) == list(texts)
        assert all(text[s : s + len(w)] == w for w, s in zip(texts, starts))

    def test_find_token_run_casefolded(self):
        hay = words("The Mask Of Fu Manchu is old.")
        assert find_token_run(hay, ("the", "mask")) == 0
        assert find_token_run(hay, ("fu", "manchu")) == 3
        assert find_token_run(hay, ("mask", "fu")) is None

    def test_capitalized_runs_drop_pronoun_only_runs(self):
        toks = words("He met Barack Obama in Hawaii.")
        runs = capitalized_runs(toks)
        surfaces = [" ".join(toks[a : b + 1]) for a, b in runs]
        assert surfaces == ["Barack Obama", "Hawaii"]

    def test_capitalized_run_may_start_with_article(self):
        toks = words("She read The Glass Orchard twice.")
        runs = capitalized_runs(toks)
        surfaces = [" ".join(toks[a : b + 1]) for a, b in runs]
        assert surfaces == ["The Glass Orchard"]

    def test_possessive_pronoun_runs_dropped(self):
        toks = words("His rival Karl Voss agreed.")
        runs = capitalized_runs(toks)
        surfaces = [" ".join(toks[a : b + 1]) for a, b in runs]
        assert surfaces == ["Karl Voss"]


class TestInstance:
    def test_flattened_indexing(self):
        inst = build_instance(
            "t-1",
            "Who was born in Hawaii?",
            ["Barack Obama was the 44th president of the US.", "He was born in Hawaii."],
            gold=(0, "Barack Obama"),
        )
        assert inst.n_question == 6
        assert inst.n_context == 16
        assert inst.sentence_offsets == (0, 10)
        assert inst.sentence_of(9) == 0 and inst.sentence_of(10) == 1
        assert inst.span_surface(13, 14) == "in Hawaii"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40)).map(sorted), st.integers(-5, 50))
    @example(starts=[3, 9], position=1)  # a character hint before the first sentence
    @example(starts=[0, 4, 4, 8], position=4)  # an empty sentence shares its start
    def test_sentence_at_matches_the_linear_scan(self, starts, position):
        sent = 0
        for i, off in enumerate(starts):
            if off <= position:
                sent = i
        assert sentence_at(starts, position) == sent

    def test_span_surface_rejects_cross_sentence(self):
        inst = build_instance(
            "t-2", "Who?", ["One sentence here.", "Another one."], gold=(0, "One")
        )
        with pytest.raises(InputError):
            inst.span_surface(2, 5)

    def test_validate_catches_span_text_drift(self):
        inst = build_instance(
            "t-3", "Who?", ["Barack Obama smiled."], gold=(0, "Barack Obama")
        )
        bad = replace(
            inst,
            gold_answers=(AnswerSpan("Barack", 0, 0, 1),),
        )
        with pytest.raises(InputError):
            validate_instance(bad)

    def test_validate_catches_out_of_range_mention(self):
        inst = build_instance(
            "t-4",
            "Who smiled?",
            ["Barack Obama smiled."],
            gold=(0, "Barack Obama"),
        )
        bad = replace(
            inst, coref_clusters=((AnswerSpan("Obama", 0, 99, 99),),)
        )
        with pytest.raises(InputError):
            validate_instance(bad)

    @pytest.mark.parametrize(
        "starts, message",
        [
            ((0, 7.0, 13, 19), "t-6 sentence 0: token 1 start must be an integer, not 7.0"),
            ((0, True, 13, 19), "t-6 sentence 0: token 1 start must be an integer, not True"),
            (("0", 7, 13, 19), "t-6 sentence 0: token 0 start must be an integer, not '0'"),
        ],
    )
    def test_validate_refuses_a_start_that_is_not_an_integer(self, starts, message):
        inst = build_instance("t-6", "Who?", ["Barack Obama smiled."], gold=(0, "Barack Obama"))
        sentence = replace(inst.context[0], starts=starts)
        with pytest.raises(InputError) as refused:
            validate_instance(replace(inst, context=(sentence,)))
        assert str(refused.value) == message

    def test_validate_refuses_a_word_that_is_not_a_string(self):
        inst = build_instance("t-7", "Who?", ["Barack Obama smiled."], gold=(0, "Barack Obama"))
        sentence = replace(inst.context[0], words=("Barack", ["O", "b"], "smiled", "."))
        with pytest.raises(InputError) as refused:
            validate_instance(replace(inst, context=(sentence,)))
        assert str(refused.value) == "t-7 sentence 0: token 1 text must be a string, not ['O', 'b']"

    def test_span_at_helper_matches_surface(self):
        inst = build_instance(
            "t-5",
            "Who was born in Hawaii?",
            ["Barack Obama was the 44th president of the US.", "He was born in Hawaii."],
            gold=(1, "Hawaii"),
        )
        gold = inst.gold_answers[0]
        assert inst.span_surface(gold.token_start, gold.token_end) == "Hawaii"
        assert gold.sentence_index == 1


class TestSlottedTypes:
    @pytest.fixture
    def inst(self):
        return build_instance(
            "t-slots",
            "Who was born in Hawaii?",
            ["Barack Obama was the 44th president.", "He was born in Hawaii."],
            gold=(0, "Barack Obama"),
        )

    def test_core_types_have_no_instance_dict(self, inst):
        for obj in (inst, inst.context[0], inst.gold_answers[0], QuestionAnnotations()):
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_derived_fields_are_left_out_of_eq_hash_and_repr(self, inst):
        names = {"context_words", "sentence_offsets"}
        derived = [f for f in fields(RCInstance) if f.name in names]
        assert {f.name for f in derived} == names
        assert not any(f.init or f.compare or f.repr for f in derived)
        assert not any(f"{name}=" in repr(inst) for name in names)
        copy = replace(inst)
        object.__setattr__(copy, "sentence_offsets", ())  # differs only in a derived field
        assert copy == inst and hash(copy) == hash(inst)

    def test_replace_recomputes_the_derived_fields(self, inst):
        extra = make_sentence("Obama was born there.")
        longer = replace(inst, context=inst.context + (extra,))
        assert longer.context_words == inst.context_words + extra.words
        assert longer.sentence_offsets == inst.sentence_offsets + (inst.n_context,)
        shorter = replace(inst, context=inst.context[1:])
        assert shorter.context_words == inst.context[1].words
        assert shorter.sentence_offsets == (0,)

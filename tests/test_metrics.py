"""Answer-metric unit tests with hand-computed oracles."""

from __future__ import annotations

import random
import re
import string

import pytest

from rcaudit.errors import InputError
from rcaudit.metrics import evaluate_dataset, exact_match, normalize_answer, token_f1


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert normalize_answer("The Mask Of Fu Manchu!") == "mask of fu manchu"

    def test_articles_dropped_everywhere(self):
        assert normalize_answer("a walk in the park") == "walk in park"

    def test_whitespace_collapsed(self):
        assert normalize_answer("  two   words \t here ") == "two words here"

    def test_article_inside_word_survives(self):
        # "the" must only match whole words
        assert normalize_answer("theater") == "theater"

    def test_pure_article_normalizes_to_empty(self):
        assert normalize_answer("The") == ""


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def translate_normalize(text: str) -> str:
    """normalize_answer as it stripped punctuation with str.translate, kept
    verbatim as the reference."""
    text = text.lower().translate(_PUNCT_TABLE)
    text = re.sub(r"\b(a|an|the)\b", " ", text)
    return " ".join(text.split())


class TestNormalizeMatchesTranslate:
    @pytest.mark.parametrize("char", list(string.punctuation))
    def test_every_ascii_punctuation_mark(self, char):
        for text in (char, f"a{char}b", f"The{char}Mask {char}an{char} x{char}{char}"):
            assert normalize_answer(text) == translate_normalize(text)

    @pytest.mark.parametrize(
        "text",
        ["’", "l’an", "—", "the—end", "«the»", "« an »", "The «Mask»—of Fu", "“The”",
         "A.B.", "l'an", "the.end", "a-the-an"],
    )
    def test_unicode_punctuation_and_articles(self, text):
        assert normalize_answer(text) == translate_normalize(text)

    def test_worked_values(self):
        assert normalize_answer("the—end") == "—end"
        assert normalize_answer("«the»") == "« »"
        assert normalize_answer("A.B.") == "ab"
        assert normalize_answer("l'an") == "lan"

    def test_random_texts(self):
        rng = random.Random(19)
        alphabet = string.ascii_letters + string.punctuation + " \t’—«»ßIİ"
        joints = list(string.punctuation) + [" ", "—", "’"]
        for _ in range(2000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
            if rng.random() < 0.5:
                text = rng.choice(["the", "a", "An", "THE"]) + rng.choice(joints) + text
            assert normalize_answer(text) == translate_normalize(text)


class TestTokenF1:
    def test_worked_example(self):
        # one shared token; precision 1/2, recall 1 -> F1 = 2/3
        assert token_f1("in Germany", ["Germany"]) == 2 / 3

    def test_exact_answer_scores_one(self):
        assert token_f1("Blind Shaft", ["blind shaft"]) == 1.0

    def test_disjoint_scores_zero(self):
        assert token_f1("red", ["blue"]) == 0.0

    def test_multiset_overlap_not_double_counted(self):
        # pred {blue: 2, car: 1}, gold {blue: 1, car: 1}: overlap 2 of 3/2
        score = token_f1("blue blue car", ["blue car"])
        assert score == pytest.approx(2 * (2 / 3) * 1.0 / (2 / 3 + 1.0))

    def test_best_gold_wins(self):
        assert token_f1("Quail Crossing", ["Summit Viaduct", "Quail Crossing"]) == 1.0

    def test_both_empty_after_normalization(self):
        assert token_f1("the", ["a"]) == 1.0

    def test_one_empty_side_scores_zero(self):
        assert token_f1("the", ["Germany"]) == 0.0

    def test_requires_gold(self):
        with pytest.raises(InputError):
            token_f1("x", [])


class TestExactMatch:
    def test_normalized_equality(self):
        assert exact_match("the mask of fu manchu!!", ["The Mask Of Fu Manchu"])

    def test_subspan_is_not_exact(self):
        assert not exact_match("Fu Manchu", ["The Mask Of Fu Manchu"])

    def test_requires_gold(self):
        with pytest.raises(InputError):
            exact_match("x", [])


def _random_phrase(rng: random.Random) -> str:
    words = []
    for _ in range(rng.randint(1, 5)):
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 7)))
        words.append(word)
    return " ".join(words)


def _decorate(text: str, rng: random.Random) -> str:
    """Same answer, different surface: casing, punctuation, spacing."""
    out = []
    for word in text.split():
        word = word.upper() if rng.random() < 0.5 else word.title()
        if rng.random() < 0.3:
            word += rng.choice(",.!?;")
        out.append(word)
    pad = " " * rng.randint(1, 3)
    return pad.join(out)


def test_exact_match_implies_full_f1():
    rng = random.Random(20240817)
    matches = 0
    for _ in range(1000):
        gold = _random_phrase(rng)
        pred = _decorate(gold, rng) if rng.random() < 0.5 else _random_phrase(rng)
        if exact_match(pred, [gold]):
            matches += 1
            assert token_f1(pred, [gold]) == 1.0
    assert matches >= 400  # the property must actually be exercised


def test_evaluate_dataset_macro_average(corpus_by_id):
    instances = [corpus_by_id["cmp-01"], corpus_by_id["cor-01"]]
    predictions = {
        "cmp-01": "The Mask Of Fu Manchu",  # exact
        "cor-01": "President Barack Obama",  # partial: p=2/3, r=1
    }
    result = evaluate_dataset(predictions, instances)
    assert result.exact_match == 0.5
    assert result.f1 == pytest.approx((1.0 + 0.8) / 2)
    assert result.n_instances == 2


def test_evaluate_dataset_requires_full_coverage(corpus):
    with pytest.raises(InputError):
        evaluate_dataset({}, corpus[:1])
    with pytest.raises(InputError):
        evaluate_dataset({}, [])

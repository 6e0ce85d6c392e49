"""Seeded synthetic comparison corpora for calibration runs.

Calibration needs many structurally valid instances whose saliency carries
no planted partition signal; pseudo-random film-comparison questions over
invented titles do the job without shipping a large fixture file.
"""

from __future__ import annotations

import numpy as np

from .corpus.annotate import annotate_question
from .corpus.filters import OPERATOR_ANTONYMS, filter_comparison
from .errors import InputError
from .text import make_sentence, split_words, words
from .types import AnswerSpan, RCInstance, validate_instance

_SYLLABLES = (
    "bar", "bel", "cor", "dan", "dor", "els", "fen", "gal", "hal", "ina",
    "jor", "kel", "lam", "mor", "nel", "ola", "pra", "quin", "ras", "sol",
    "tam", "ur", "vel", "wex", "yor", "zan",
)


def _title(rng: np.random.Generator) -> str:
    parts = []
    for _ in range(int(rng.integers(2, 4))):
        n_syl = int(rng.integers(2, 4))
        word = "".join(_SYLLABLES[int(rng.integers(len(_SYLLABLES)))] for _ in range(n_syl))
        parts.append(word.capitalize())
    return " ".join(parts)


def make_synthetic_corpus(n: int, seed: int = 0) -> list[RCInstance]:
    """Generate n annotated comparison instances with two-title questions."""
    if n < 1:
        raise InputError("synthetic corpus size must be >= 1")
    rng = np.random.default_rng(seed)
    instances: list[RCInstance] = []
    while len(instances) < n:
        k = len(instances)
        operator = OPERATOR_ANTONYMS[k % len(OPERATOR_ANTONYMS)][0]
        title_a = _title(rng)
        title_b = _title(rng)
        if title_a.casefold() == title_b.casefold():
            continue
        year_a = int(rng.integers(1930, 2020))
        year_b = int(rng.integers(1930, 2020))
        question = f"Which film came out {operator}, {title_a} or {title_b}?"
        s1 = make_sentence(
            f"{title_a} was released in {year_a}.", supporting=True, paragraph_id="a"
        )
        s2 = make_sentence(
            f"{title_b} was released in {year_b}.", supporting=True, paragraph_id="b"
        )
        n_a = len(words(title_a))
        gold = AnswerSpan(text=title_a, sentence_index=0, token_start=0, token_end=n_a - 1)
        question_words, question_starts = split_words(question)
        instance = RCInstance(
            id=f"syn-{seed}-{k:04d}",
            question_words=question_words,
            question_starts=question_starts,
            question_text=question,
            context=(s1, s2),
            gold_answers=(gold,),
        )
        annotated = annotate_question(filter_comparison([instance])[0])
        if annotated.unannotatable:
            continue
        instances.append(validate_instance(annotated))
    return instances

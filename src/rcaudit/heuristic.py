"""Unsupervised shortcut baseline: pick a sentence, extract a typed phrase.

The method answers without any training: choose the context sentence most
related to the question (by token overlap, longest common subsequence,
position, or embedding cosine), guess the expected answer type from the
question's wh-word, then return the first entity of that type in the
chosen sentence. Its accuracy ceiling is what a dataset gives away to
shortcut strategies, so it doubles as a difficulty probe.

The entity tagger and the sentence embedding are deterministic rules
(capitalized runs and digits; feature hashing), so everything runs
hermetically.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .errors import InputError
from .metrics import normalize_answer
from .text import capitalized_runs, split_words, words
from .types import RCInstance

SELECTION_STRATEGIES = ("token_overlap", "lcs", "position", "sentence_encoder")
# Length of the feature-hashing sentence embedding.
_EMBED_DIM = 64


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Token-level longest common subsequence length (classic DP)."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                row.append(prev[j - 1] + 1)
            else:
                row.append(max(prev[j], row[-1]))
        prev = row
    return prev[-1]


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def select_sentence(
    question: str,
    sentences: Sequence[str],
    strategy: str = "token_overlap",
) -> int:
    """Index of the sentence the strategy scores highest; ties pick the
    earliest sentence. token_overlap counts distinct shared normalized
    tokens; lcs is a token-level longest common subsequence."""
    if not sentences:
        raise InputError("select_sentence needs at least one sentence")
    if strategy == "position":
        return 0
    q_tokens = normalize_answer(question).split()
    if strategy == "token_overlap":
        q_set = set(q_tokens)
        scores = [len(q_set & set(normalize_answer(s).split())) for s in sentences]
    elif strategy == "lcs":
        scores = [_lcs_length(q_tokens, normalize_answer(s).split()) for s in sentences]
    elif strategy == "sentence_encoder":
        q_vec = embed_sentence(question)
        scores = [_cosine(q_vec, embed_sentence(s)) for s in sentences]
    else:
        raise InputError(f"unknown selection strategy {strategy!r}")
    best = 0
    for i, score in enumerate(scores):
        if score > scores[best]:
            best = i
    return best


# Expected answer types, in the three labels `recognize_entities` emits.
# ENTITY head nouns stay listed: the first head noun decides the type.
_WH_TYPES = {"who": "ENTITY", "whom": "ENTITY", "where": "ENTITY", "when": "DATE"}

_HEAD_NOUN_TYPES = {
    **dict.fromkeys(
        """person man woman author actor actress director president singer writer
        king queen city country state town capital island place nation film movie
        book novel album song company organization band team club""".split(),
        "ENTITY",
    ),
    **dict.fromkeys("year date day month decade".split(), "DATE"),
    **dict.fromkeys("number amount count".split(), "CARDINAL"),
}


def predict_entity_type(question: str) -> str:
    """Expected answer entity type; always returns some label.

    The wh-word mapping keys off the first interrogative word ("how
    many/much" maps to CARDINAL; "which"/"what" scan the following words
    for a typed head noun).
    """
    tokens = normalize_answer(question).split()
    for i, tok in enumerate(tokens):
        if tok in _WH_TYPES:
            return _WH_TYPES[tok]
        if tok == "how":
            if i + 1 < len(tokens) and tokens[i + 1] in ("many", "much"):
                return "CARDINAL"
            return "ENTITY"
        if tok in ("which", "what"):
            for later in tokens[i + 1 :]:
                if later in _HEAD_NOUN_TYPES:
                    return _HEAD_NOUN_TYPES[later]
            return "ENTITY"
    return "ENTITY"


# Function words that open sentences; capitalized there, they are no name.
_SENTENCE_OPENERS = frozenset(
    "after as at before by during for from in on since then to until when while with".split()
)


def recognize_entities(text: str) -> list[tuple[int, int, str]]:
    """Sorted (char start, char end, label) entities: capitalized runs label
    as ENTITY (less a sentence-opening function word such as "In"),
    four-digit numbers in 1000..2999 as DATE, other digit-bearing tokens as
    CARDINAL."""
    text_words, starts = split_words(text)
    entities: list[tuple[int, int, str]] = []
    in_run = set()
    for lo, hi in capitalized_runs(text_words):
        if lo == 0 and text_words[0].casefold() in _SENTENCE_OPENERS:
            lo = 1  # capitalized only because it starts the sentence
        if lo > hi:
            continue
        entities.append((starts[lo], starts[hi] + len(text_words[hi]), "ENTITY"))
        in_run.update(range(lo, hi + 1))
    for i, (word, start) in enumerate(zip(text_words, starts)):
        if i in in_run:
            continue
        if word.isdigit() and len(word) == 4 and word[0] in "12":
            entities.append((start, start + len(word), "DATE"))
        elif any(ch.isdigit() for ch in word):
            entities.append((start, start + len(word), "CARDINAL"))
    entities.sort()
    return entities


def extract_phrase(sentence: str, entity_type: str) -> str:
    """First entity of the wanted type; any-type, then first-word fallbacks
    keep the answer non-empty."""
    if not sentence.strip():
        raise InputError("extract_phrase needs a non-empty sentence")
    entities = recognize_entities(sentence)
    for start, end, label in entities:
        if label == entity_type:
            return sentence[start:end]
    if entities:
        start, end, _ = entities[0]
        return sentence[start:end]
    return words(sentence)[0]


def embed_sentence(text: str) -> np.ndarray:
    """Dependency-free deterministic bag-of-words embedding (feature hashing)."""
    vec = np.zeros(_EMBED_DIM)
    for token in normalize_answer(text).split():
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % _EMBED_DIM
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        vec[index] += sign
    return vec


def heuristic_answer(instance: RCInstance, strategy: str) -> str:
    """Sentence selection composed with typed phrase extraction."""
    sentences = [s.text for s in instance.context]
    index = select_sentence(instance.question_text, sentences, strategy)
    entity_type = predict_entity_type(instance.question_text)
    return extract_phrase(sentences[index], entity_type)

"""Word-level tokenization and small text utilities.

The whole toolkit operates on word tokens: alphanumeric runs (with internal
apostrophes) and individual punctuation marks. Model-specific subword
handling is a gateway concern and never leaks out of it.
"""

from __future__ import annotations

import re
from typing import Sequence

from .types import Sentence

_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]", re.UNICODE)

# Splits after terminal punctuation followed by whitespace and an upper-case,
# quote or digit start. Good enough for fixture-scale prose; abbreviation
# boundaries are not handled.
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[\"'(A-Z0-9])")


def split_words(text: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The words of `text` and each word's start offset into it."""
    matches = list(_TOKEN_RE.finditer(text))
    return tuple([m.group() for m in matches]), tuple([m.start() for m in matches])


def words(text: str) -> list[str]:
    """The words of `split_words(text)`, for callers that read no offsets."""
    return _TOKEN_RE.findall(text)


def spaced_starts(words: Sequence[str]) -> tuple[int, ...]:
    """Start offsets of `words` joined by single spaces."""
    starts, pos = [], 0
    for word in words:
        starts.append(pos)
        pos += len(word) + 1
    return tuple(starts)


def split_sentences(text: str) -> list[str]:
    return [part for part in _SENTENCE_RE.split(text.strip()) if part]


def make_sentence(text: str, supporting: bool = False, paragraph_id: str = "0") -> Sentence:
    sent_words, starts = split_words(text)
    if not sent_words:
        raise ValueError("cannot build a sentence from empty text")
    return Sentence(sent_words, starts, is_supporting_fact=supporting, paragraph_id=paragraph_id)


def find_token_run(haystack: Sequence[str], needle_texts: Sequence[str]) -> int | None:
    """First index where the casefolded words of `needle_texts` occur
    contiguously in the words `haystack`, or None."""
    if not needle_texts:
        return None
    needle = [t.casefold() for t in needle_texts]
    first, n = needle[0], len(needle)
    for i in range(len(haystack) - n + 1):
        # Casefold as the scan goes: a hit ends it early.
        if haystack[i].casefold() == first and [w.casefold() for w in haystack[i : i + n]] == needle:
            return i
    return None


_RUN_STOPWORDS = frozenset(
    """the a an i he she it we they you who whom what which when where why how
    this that these those his her its their him them my our your""".split()
)


def capitalized_runs(words: Sequence[str]) -> list[tuple[int, int]]:
    """Maximal runs of capitalized words as inclusive (start, end) index pairs.

    Runs consisting solely of stopwords (sentence-initial 'The', pronouns)
    are dropped; runs may start with a stopword when it leads a longer name.
    """
    runs: list[tuple[int, int]] = []
    i = 0
    while i < len(words):
        if words[i][:1].isupper():
            j = i
            while j + 1 < len(words) and words[j + 1][:1].isupper():
                j += 1
            if any(words[k].casefold() not in _RUN_STOPWORDS for k in range(i, j + 1)):
                runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs

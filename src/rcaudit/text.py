"""Word-level tokenization and small text utilities.

The whole toolkit operates on word tokens: alphanumeric runs (with internal
apostrophes) and individual punctuation marks. Model-specific subword
handling is a gateway concern and never leaks out of it.
"""

from __future__ import annotations

import re
from typing import Sequence

from .types import Sentence, Token

_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]", re.UNICODE)

# Splits after terminal punctuation followed by whitespace and an upper-case,
# quote or digit start. Good enough for fixture-scale prose; abbreviation
# boundaries are not handled.
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[\"'(A-Z0-9])")


def tokenize(text: str) -> tuple[Token, ...]:
    """Tokenize text, keeping character offsets into the original string."""
    return tuple(
        [Token(m.group(), i, m.start(), m.end()) for i, m in enumerate(_TOKEN_RE.finditer(text))]
    )


def words(text: str) -> list[str]:
    """The texts of `tokenize(text)`, for callers that read no offsets."""
    return _TOKEN_RE.findall(text)


def tokens_from_words(words: list[str]) -> tuple[Token, ...]:
    """Build a token sequence from bare words, single-space separated."""
    toks, pos = [], 0
    for i, word in enumerate(words):
        toks.append(Token(text=word, index=i, char_start=pos, char_end=pos + len(word)))
        pos += len(word) + 1
    return tuple(toks)


def split_sentences(text: str) -> list[str]:
    return [part for part in _SENTENCE_RE.split(text.strip()) if part]


def make_sentence(text: str, supporting: bool = False, paragraph_id: str = "0") -> Sentence:
    toks = tokenize(text)
    if not toks:
        raise ValueError("cannot build a sentence from empty text")
    return Sentence(tokens=toks, is_supporting_fact=supporting, paragraph_id=paragraph_id)


def find_token_run(haystack: tuple[Token, ...], needle_texts: Sequence[str]) -> int | None:
    """First index where the casefolded token texts of `needle_texts` occur
    contiguously in `haystack`, or None."""
    if not needle_texts:
        return None
    needle = [t.casefold() for t in needle_texts]
    folded = [t.text.casefold() for t in haystack]
    first, n = needle[0], len(needle)
    for i in range(len(folded) - n + 1):
        if folded[i] == first and folded[i : i + n] == needle:
            return i
    return None


_RUN_STOPWORDS = frozenset(
    """the a an i he she it we they you who whom what which when where why how
    this that these those his her its their him them my our your""".split()
)


def capitalized_runs(tokens: tuple[Token, ...]) -> list[tuple[int, int]]:
    """Maximal runs of capitalized tokens as inclusive (start, end) index pairs.

    Runs consisting solely of stopwords (sentence-initial 'The', pronouns)
    are dropped; runs may start with a stopword when it leads a longer name.
    """
    runs: list[tuple[int, int]] = []
    i = 0
    while i < len(tokens):
        if tokens[i].text[:1].isupper():
            j = i
            while j + 1 < len(tokens) and tokens[j + 1].text[:1].isupper():
                j += 1
            if any(tokens[k].text.casefold() not in _RUN_STOPWORDS for k in range(i, j + 1)):
                runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs

"""Word and sentence tokenization.

The tokenizer is intentionally simple and deterministic: it recognises
words (with internal apostrophes and hyphens), numbers, and treats
everything else as punctuation.  Character offsets are preserved so that
extractors can report spans into the original text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

_WORD_RE = re.compile(
    r"""
    [A-Za-z]+(?:['\-][A-Za-z]+)*   # words, possibly hyphenated/apostrophed
    | \d+(?:[.,]\d+)*              # numbers like 1,000 or 3.14
    """,
    re.VERBOSE,
)

# Sentence boundaries: ., !, ? followed by whitespace and an uppercase letter,
# digit or quote.  Common abbreviations are protected.
_ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc",
        "inc", "ltd", "co", "corp", "gov", "sen", "rep", "gen", "u.s", "u.n",
    }
)

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+(?=[\"'A-Z0-9])")


@dataclass(frozen=True)
class Token:
    """A single token with its surface form and character span."""

    text: str
    start: int
    end: int

    @property
    def lower(self) -> str:
        """Lower-cased surface form."""
        return self.text.lower()

    @property
    def is_capitalized(self) -> bool:
        """True when the token starts with an uppercase letter."""
        return bool(self.text) and self.text[0].isupper()

    @property
    def is_numeric(self) -> bool:
        """True when the token is a number."""
        return bool(self.text) and self.text[0].isdigit()


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into :class:`Token` objects with offsets."""
    return [
        Token(match.group(0), match.start(), match.end())
        for match in _WORD_RE.finditer(text)
    ]


def word_tokens(text: str) -> list[str]:
    """Return just the lower-cased word strings of ``text``."""
    # The pattern has no groups, so ``findall`` yields whole matches: the
    # same words as ``tokenize`` without building a Token per word.
    return [word.lower() for word in _WORD_RE.findall(text)]


def _merge_abbreviation_splits(pieces: list[str]) -> Iterator[str]:
    """Re-join sentence pieces that were split after an abbreviation."""
    buffer = ""
    for piece in pieces:
        candidate = f"{buffer} {piece}".strip() if buffer else piece
        last_word = candidate.rstrip(". ").rsplit(" ", 1)[-1].lower()
        if candidate.endswith(".") and last_word in _ABBREVIATIONS:
            buffer = candidate
        else:
            buffer = ""
            yield candidate
    if buffer:
        yield buffer


def sentences(text: str) -> list[str]:
    """Split ``text`` into sentences.

    Handles the common newswire abbreviations (``Mr.``, ``Dr.``,
    ``Corp.``, ...) without splitting after them.
    """
    stripped = text.strip()
    if not stripped:
        return []
    pieces = _SENTENCE_SPLIT_RE.split(stripped)
    return [piece for piece in _merge_abbreviation_splits(pieces) if piece]


def normalize_term(term: str) -> str:
    """Normalize a term for frequency counting and matching.

    Lower-cases, collapses internal whitespace, and strips surrounding
    punctuation.  Multi-word phrases keep single spaces between words.
    """
    words = _WORD_RE.findall(term)
    return " ".join(word.lower() for word in words)

"""The columnar data plane's text-function memo context.

Steps 1–2 call the pure text functions — :func:`tokenize`,
:func:`sentences`, :func:`normalize_term` — many times on the same
inputs: the stats pass and every extractor re-tokenize each document,
and every merge re-normalizes the same surface forms.  Each pass
activates one :class:`TextMemo` (:func:`use_text_memo`) that memoizes
those functions per distinct input string: one around both Step 1
passes, one around Step 2's term resolution.  Memoizing a pure
function cannot change any output byte — only how often the regex
engine runs.

Call sites import the module-level wrappers below instead of the raw
:mod:`repro.text.tokenizer` functions; with no active memo (a direct
call outside any pass) they delegate straight through.

The memo is context-local (a :class:`contextvars.ContextVar`), so a
caller on another thread never sees, or writes into, a pass's memo and
no locking is needed anywhere.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from .stopwords import STOPWORDS
from .tokenizer import _WORD_RE, Token
from .tokenizer import normalize_term as _raw_normalize_term
from .tokenizer import sentences as _raw_sentences
from .tokenizer import tokenize as _raw_tokenize
from .vocabulary import TermInterner


class SentenceColumns:
    """One sentence's token stream as parallel columns.

    The columnar data plane's per-sentence working set: token surfaces,
    their lower-cased forms, character offsets, and the per-token
    capitalized / numeric / stopword flags every Step-1 consumer keeps
    re-deriving from :class:`~repro.text.tokenizer.Token` properties.
    Computed in a single regex pass per distinct sentence, with no
    ``Token`` objects at all; each column is exactly what the
    corresponding property chain would have produced (``lowers[i] ==
    tokens[i].lower``, ``caps[i] == tokens[i].is_capitalized``, ...).
    """

    __slots__ = ("texts", "lowers", "starts", "ends", "caps", "nums", "stops")

    def __init__(self, sentence: str) -> None:
        spans = [match.span() for match in _WORD_RE.finditer(sentence)]
        texts = [sentence[start:end] for start, end in spans]
        self.texts = texts
        self.starts = [span[0] for span in spans]
        self.ends = [span[1] for span in spans]
        lowers = list(map(str.lower, texts))
        self.lowers = lowers
        firsts = [text[0] for text in texts]
        self.caps = list(map(str.isupper, firsts))
        self.nums = list(map(str.isdigit, firsts))
        # Stopword flags over the lower-cased forms: ``is_stopword``
        # lower-cases its argument, so membership over ``lowers`` is the
        # same predicate.
        self.stops = list(map(STOPWORDS.__contains__, lowers))

    def __len__(self) -> int:
        return len(self.texts)


class TextMemo:
    """Per-pass memo tables over the pure text functions.

    Holds a :class:`~repro.text.vocabulary.TermInterner` (which memoizes
    normalization and assigns term ids) plus tokenization/sentence
    caches keyed by the exact input string.  CPython caches a string's
    hash, so repeated lookups on long document texts cost one dict probe.
    """

    __slots__ = ("interner", "_tokens", "_sentences", "_columns")

    def __init__(self, interner: TermInterner | None = None) -> None:
        self.interner = interner if interner is not None else TermInterner()
        self._tokens: dict[str, list[Token]] = {}
        self._sentences: dict[str, list[str]] = {}
        self._columns: dict[str, SentenceColumns] = {}

    def tokenize(self, text: str) -> list[Token]:
        tokens = self._tokens.get(text)
        if tokens is None:
            tokens = self._tokens[text] = _raw_tokenize(text)
        return tokens

    def sentences(self, text: str) -> list[str]:
        result = self._sentences.get(text)
        if result is None:
            result = self._sentences[text] = _raw_sentences(text)
        return result

    def normalize(self, surface: str) -> str:
        return self.interner.normalize(surface)

    def sentence_columns(self, sentence: str) -> SentenceColumns:
        columns = self._columns.get(sentence)
        if columns is None:
            columns = self._columns[sentence] = SentenceColumns(sentence)
        return columns


_ACTIVE: ContextVar[TextMemo | None] = ContextVar("repro_text_memo", default=None)


def active_memo() -> TextMemo | None:
    """The :class:`TextMemo` of the current context, if any."""
    return _ACTIVE.get()


@contextmanager
def use_text_memo(memo: TextMemo) -> Iterator[TextMemo]:
    """Activate ``memo`` for the current context (one pass's scope)."""
    token = _ACTIVE.set(memo)
    try:
        yield memo
    finally:
        _ACTIVE.reset(token)


def tokenize(text: str) -> list[Token]:
    """Context-memoized :func:`repro.text.tokenizer.tokenize`."""
    memo = _ACTIVE.get()
    if memo is None:
        return _raw_tokenize(text)
    return memo.tokenize(text)


def sentences(text: str) -> list[str]:
    """Context-memoized :func:`repro.text.tokenizer.sentences`."""
    memo = _ACTIVE.get()
    if memo is None:
        return _raw_sentences(text)
    return memo.sentences(text)


def normalize_term(term: str) -> str:
    """Context-memoized :func:`repro.text.tokenizer.normalize_term`."""
    memo = _ACTIVE.get()
    if memo is None:
        return _raw_normalize_term(term)
    return memo.interner.normalize(term)

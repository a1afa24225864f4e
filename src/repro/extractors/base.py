"""Extractor interface."""

from __future__ import annotations

import abc
import enum

from ..corpus.document import Document
from ..text.vocabulary import Vocabulary


class ExtractorName(enum.Enum):
    """The three extractors of Section IV-A (table column headers)."""

    NAMED_ENTITIES = "NE"
    YAHOO = "Yahoo"
    WIKIPEDIA = "Wikipedia"


class TermExtractor(abc.ABC):
    """Identifies the important terms ``E_i(d)`` of a document."""

    #: Which paper extractor this implements.
    name: ExtractorName

    @abc.abstractmethod
    def extract(self, document: Document) -> list[str]:
        """Important terms of ``document`` (surface forms, de-duplicated)."""

    def use_background(self, vocabulary: Vocabulary) -> None:
        """Offer corpus statistics to the extractor before extraction.

        The annotation pass calls this with the original database's term
        statistics; extractors that score against a background (the
        Yahoo stand-in) override it, others ignore it.
        """

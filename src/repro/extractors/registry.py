"""Factory helpers wiring extractors to their substrates."""

from __future__ import annotations

from ..errors import ExtractionError
from ..wikipedia.database import WikipediaDatabase
from .base import ExtractorName, TermExtractor
from .named_entities import NamedEntityExtractor
from .significant_terms import SignificantTermsExtractor
from .wiki_titles import WikipediaTitleExtractor


def build_extractor(
    name: ExtractorName | str,
    wikipedia: WikipediaDatabase | None = None,
) -> TermExtractor:
    """Build one extractor by name.

    The Wikipedia extractor requires the ``wikipedia`` snapshot.
    """
    if isinstance(name, str):
        try:
            name = ExtractorName(name)
        except ValueError as exc:
            raise ExtractionError(f"unknown extractor: {name!r}") from exc
    if name is ExtractorName.NAMED_ENTITIES:
        return NamedEntityExtractor()
    if name is ExtractorName.YAHOO:
        return SignificantTermsExtractor()
    if name is ExtractorName.WIKIPEDIA:
        if wikipedia is None:
            raise ExtractionError(
                "the Wikipedia extractor needs a WikipediaDatabase"
            )
        return WikipediaTitleExtractor(wikipedia)
    raise ExtractionError(f"unhandled extractor: {name!r}")


def build_extractors(
    names: list[ExtractorName | str],
    wikipedia: WikipediaDatabase | None = None,
) -> list[TermExtractor]:
    """Build several extractors at once."""
    return [build_extractor(name, wikipedia=wikipedia) for name in names]

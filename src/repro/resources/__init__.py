"""External context resources (Step 2 of the pipeline, Figure 2).

Each resource answers "given an important term, which context terms are
associated with it?"  The four resources of Section IV-B:

* :class:`GoogleResource` — frequent words/phrases in web snippets,
* :class:`WordNetHypernymResource` — hypernym chains (common nouns only),
* :class:`WikipediaGraphResource` — top-k linked entries scored by
  ``log(N / in(t2)) / out(t1)``,
* :class:`WikipediaSynonymsResource` — redirect groups and scored
  anchor-text variants,

plus :class:`CompositeResource` which unions several resources (the
"All" rows of Tables II-VII).
"""

from .base import ExternalResource, ResourceName
from .google import GoogleResource
from .wordnet_hypernyms import WordNetHypernymResource
from .wiki_graph import WikipediaGraphResource
from .wiki_synonyms import WikipediaSynonymsResource
from .composite import CompositeResource
from .domain import (
    DomainGlossary,
    DomainTermExtractor,
    DomainVocabularyResource,
    financial_glossary,
)
from .registry import build_resource, build_resources
from .resilience import FlakyResource, ResilientResource, SimulatedLatencyResource

__all__ = [
    "ExternalResource",
    "ResourceName",
    "GoogleResource",
    "WordNetHypernymResource",
    "WikipediaGraphResource",
    "WikipediaSynonymsResource",
    "CompositeResource",
    "DomainGlossary",
    "DomainTermExtractor",
    "DomainVocabularyResource",
    "financial_glossary",
    "build_resource",
    "build_resources",
    "FlakyResource",
    "ResilientResource",
    "SimulatedLatencyResource",
]

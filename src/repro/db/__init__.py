"""Text-database substrate: document store, inverted index, search.

The paper treats the news archive as a searchable text database with an
OLAP-style faceted layer on top.  This subpackage provides that
substrate: an in-memory document store, an inverted index maintaining
the document frequencies the facet analysis needs, and BM25 ranked
keyword search used by the browsing interface and the user-study
simulator.
"""

from .store import DocumentStore
from .inverted_index import InvertedIndex, Posting
from .resource_cache import PersistentResourceCache
from .search import BM25Searcher, SearchResult

__all__ = [
    "DocumentStore",
    "InvertedIndex",
    "Posting",
    "BM25Searcher",
    "SearchResult",
    "PersistentResourceCache",
]

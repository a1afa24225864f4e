"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class CorpusError(ReproError):
    """A corpus could not be generated or loaded."""


class KnowledgeBaseError(ReproError):
    """The knowledge base is inconsistent or an entity is missing."""


class ResourceError(ReproError):
    """An external-resource simulation failed to answer a query."""


class ExtractionError(ReproError):
    """A term extractor failed on a document."""


class StorageError(ReproError):
    """The document store or an index rejected an operation."""


class ArtifactDamagedError(StorageError):
    """An open index artifact's file no longer reads as its database."""


class IndexClosedError(StorageError):
    """An index artifact was queried after it was closed."""


class HierarchyError(ReproError):
    """A facet hierarchy could not be constructed or navigated."""


class EvaluationError(ReproError):
    """An evaluation harness was invoked with inconsistent inputs."""

"""One-shot convenience API: ``repro.run(documents_or_corpus, ...)``.

The fluent :class:`~repro.builder.FacetPipelineBuilder` stays the
power-user surface; :func:`run` covers the common case — "here is a
collection, give me facets" — in a single call:

    import repro

    result = repro.run(corpus, scale=0.1, cache_path="expansions.db")
    for facet in result.hierarchies[:5]:
        print(facet.name, facet.root.count)

It accepts a :class:`~repro.corpus.document.Corpus`, a list of
:class:`~repro.corpus.document.Document`, or a list of raw strings
(wrapped into documents), plus keyword configuration that is routed to
:class:`~repro.config.ReproConfig`, :class:`~repro.config.ParallelConfig`,
or the builder as appropriate.
"""

from __future__ import annotations

from collections.abc import Sequence

import dataclasses
from typing import TYPE_CHECKING

from .builder import FacetPipelineBuilder
from .config import ParallelConfig, ReproConfig, ServingConfig
from .corpus.document import Corpus, Document
from .core.interface import FacetedInterface
from .core.pipeline import FacetExtractionResult
from .db.store import DocumentStore
from .observability import Observability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .serving import FacetIndex

#: Keywords routed to :class:`ReproConfig`.
_CONFIG_KEYS = frozenset(
    {"seed", "scale", "wiki_graph_top_k", "annotators_per_story", "parallel"}
)

#: Keywords routed to :class:`ParallelConfig` (shortcut form).
_PARALLEL_KEYS = frozenset({"cache_path", "memory_cache_size"})


def _coerce_documents(
    documents_or_corpus: Corpus | Sequence[Document] | Sequence[str],
) -> tuple[list[Document], DocumentStore | None]:
    """Normalize the input collection; corpora also yield a store."""
    if isinstance(documents_or_corpus, Corpus):
        documents = list(documents_or_corpus.documents)
        return documents, DocumentStore(documents)
    documents_list = list(documents_or_corpus)
    if not documents_list:
        raise ValueError("run() needs at least one document")
    if all(isinstance(item, Document) for item in documents_list):
        return documents_list, None
    if all(isinstance(item, str) for item in documents_list):
        wrapped = [
            Document(doc_id=f"doc-{index:06d}", title="", body=text)
            for index, text in enumerate(documents_list)
        ]
        return wrapped, None
    raise TypeError(
        "run() accepts a Corpus, a list of Document, or a list of str; "
        f"got mixed/unsupported items: {type(documents_list[0]).__name__}, ..."
    )


def run(
    documents_or_corpus: Corpus | Sequence[Document] | Sequence[str],
    *,
    config: ReproConfig | None = None,
    observability: Observability | None = None,
    extractors: Sequence[object] | None = None,
    resources: Sequence[object] | None = None,
    top_k: int | None = None,
    statistic: str | None = None,
    require_both_shifts: bool | None = None,
    build_hierarchies: bool = True,
    **config_kwargs: object,
) -> FacetExtractionResult:
    """Run the full facet-extraction pipeline in one call.

    Parameters
    ----------
    documents_or_corpus:
        A :class:`Corpus`, a list of :class:`Document`, or a list of raw
        text strings.
    config:
        A ready :class:`ReproConfig`; mutually exclusive with passing
        its fields as keywords.
    observability:
        Tracing/metrics bundle (e.g. ``Observability.enabled()``); None
        runs uninstrumented.
    extractors / resources:
        Extractor / resource name subsets for the builder (names or
        enum members); defaults to all of them.
    top_k / statistic / require_both_shifts / build_hierarchies:
        Selection and hierarchy knobs, as on the builder.
    **config_kwargs:
        Any :class:`ReproConfig` field (``seed``, ``scale``, …) or
        :class:`ParallelConfig` field (``cache_path`` or
        ``memory_cache_size``) as a flat keyword —
        ``repro.run(docs, scale=0.1, cache_path="expansions.db")``.

    Returns
    -------
    FacetExtractionResult
        With :attr:`~FacetExtractionResult.store` populated when the
        input was a :class:`Corpus`, so :meth:`FacetedInterface.from_result` reuses
        the run's document store.
    """
    unknown = set(config_kwargs) - _CONFIG_KEYS - _PARALLEL_KEYS
    if unknown:
        raise TypeError(
            f"run() got unexpected keyword argument(s): {sorted(unknown)}"
        )
    if config is not None and config_kwargs:
        raise TypeError(
            "pass either a ready ReproConfig via config= or its fields as "
            f"keywords, not both: {sorted(config_kwargs)}"
        )
    if config is None:
        parallel_kwargs = {
            key: config_kwargs.pop(key)
            for key in list(config_kwargs)
            if key in _PARALLEL_KEYS
        }
        if parallel_kwargs and "parallel" in config_kwargs:
            raise TypeError(
                "pass either parallel= or flat ParallelConfig keywords, "
                f"not both: {sorted(parallel_kwargs)}"
            )
        if parallel_kwargs:
            config_kwargs["parallel"] = ParallelConfig(**parallel_kwargs)
        config = ReproConfig(**config_kwargs)  # type: ignore[arg-type]

    documents, store = _coerce_documents(documents_or_corpus)

    builder = FacetPipelineBuilder(config)
    if extractors is not None:
        builder.with_extractors(list(extractors))
    if resources is not None:
        builder.with_resources(list(resources))
    if top_k is not None:
        builder.with_top_k(top_k)
    if statistic is not None:
        builder.with_statistic(statistic)
    if require_both_shifts is not None:
        builder.with_shift_requirement(require_both_shifts)
    if not build_hierarchies:
        builder.without_hierarchies()
    if observability is not None:
        builder.with_observability(observability)
    return builder.build().run(documents, store=store)


def open_index(path: str) -> "FacetIndex":
    """Open a serving artifact built with ``repro index build``.

    Returns a read-only :class:`~repro.serving.FacetIndex` answering the
    same query surface as :class:`~repro.core.interface.FacetedInterface`
    — the one-shot mirror of ``FacetIndex.open(path)``.
    """
    from .serving import FacetIndex

    return FacetIndex.open(path)


def serve(
    target: "FacetIndex | FacetedInterface | FacetExtractionResult | str",
    *,
    config: ServingConfig | None = None,
    host: str | None = None,
    port: int | None = None,
    observability: Observability | None = None,
) -> None:
    """Serve the faceted-browsing HTTP API over ``target`` (blocking).

    ``target`` may be an opened :class:`~repro.serving.FacetIndex`, a
    path to an artifact file, an in-memory
    :class:`~repro.core.interface.FacetedInterface`, or a raw
    :class:`FacetExtractionResult` (wrapped on the fly) — the one-shot
    mirror of mounting :class:`~repro.serving.FacetApp` on a server.
    Prints ``serving on http://host:port`` once the socket is bound;
    ``port=0`` binds a free port.
    """
    from .serving import FacetApp, serve_blocking

    browser: object = target
    if isinstance(target, str):
        browser = open_index(target)
    elif isinstance(target, FacetExtractionResult):
        browser = FacetedInterface.from_result(target)
    serving_config = config if config is not None else ServingConfig()
    overrides: dict[str, object] = {}
    if host is not None:
        overrides["host"] = host
    if port is not None:
        overrides["port"] = port
    if overrides:
        serving_config = dataclasses.replace(serving_config, **overrides)
    app = FacetApp(browser, config=serving_config, observability=observability)
    serve_blocking(app, serving_config.host, serving_config.port)

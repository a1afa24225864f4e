"""Runners for Figure 4 and Figure 5 of the paper.

* Figure 4 — the most frequent facet terms identified by annotators
  (anything chosen by at least two annotators on some story).
* Figure 5 — what a plain subsumption baseline extracts from the raw
  database without the expansion pipeline: high-document-frequency
  newswire filler ("year", "time", "people", ...).
"""

from __future__ import annotations

from collections import Counter

from ..config import ReproConfig
from ..corpus.datasets import DatasetName, build_corpus
from ..core.annotate import annotate_database
from ..core.subsumption import build_subsumption_hierarchy
from ..eval.goldset import build_gold_set
from ..eval.metrics import match_key


def figure4_terms(
    config: ReproConfig | None = None,
    dataset: DatasetName | str = DatasetName.SNYT,
    top_n: int = 40,
) -> list[str]:
    """Most frequently used annotator facet terms (Figure 4)."""
    config = config or ReproConfig()
    corpus = build_corpus(dataset, config)
    gold = build_gold_set(corpus, config)
    counts: Counter[str] = Counter()
    surface: dict[str, str] = {}
    for terms in gold.per_document.values():
        for term in terms:
            key = match_key(term)
            counts[key] += 1
            surface.setdefault(key, term)
    return [surface[key].lower() for key, _ in counts.most_common(top_n)]


def figure5_baseline_terms(
    config: ReproConfig | None = None,
    dataset: DatasetName | str = DatasetName.SNYT,
    top_n: int = 25,
    vocabulary_cap: int = 150,
) -> list[str]:
    """Terms a plain subsumption baseline surfaces (Figure 5).

    Without expansion, the only high-document-frequency terms in a news
    database are generic filler words, and the subsumption roots are
    exactly those — the paper's motivation for the whole pipeline.
    """
    config = config or ReproConfig()
    corpus = build_corpus(dataset, config)
    sample = corpus.documents[: config.annotated_sample_size]
    annotated = annotate_database(sample, extractors=[])
    vocabulary = annotated.vocabulary
    frequent = [
        term
        for term, _ in vocabulary.most_common(vocabulary_cap)
        if " " not in term
    ]
    term_sets = annotated.term_sets
    doc_sets = {
        term: {doc_id for doc_id, terms in term_sets.items() if term in terms}
        for term in frequent
    }
    hierarchy = build_subsumption_hierarchy(frequent, doc_sets)
    # The baseline's facet terms: the hierarchy's highest-frequency
    # entries (roots and their immediate children).
    shallow = [t for t in hierarchy.terms() if hierarchy.depth(t) <= 1]
    ranked = sorted(shallow, key=lambda t: (-vocabulary.df(t), t))
    return ranked[:top_n]

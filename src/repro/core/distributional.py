"""Distributional comparison of the original and expanded collections.

The paper situates its method in distributional analysis (Section VI):
Lee's (ACL 1999) *skew divergence* identifies asymmetric substitutability
("fruit" can approximate "apple" but not vice versa), and the shift/LLR
machinery of Section IV-C is one instance of comparing two collections'
term distributions.  This module supplies the general tools:

* :func:`kl_divergence` and :func:`skew_divergence` over term
  distributions,
* :func:`collection_distribution` — a term's probability distribution in
  a collection,
* :func:`divergence_scores` — an alternative facet-term scorer that
  ranks terms by their contribution to the divergence between the
  expanded and the original database (used by the scoring ablation).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from ..text.vocabulary import Vocabulary

#: Lee's alpha: skew divergence is KL(p || a*q + (1-a)*p).
DEFAULT_ALPHA = 0.99


def collection_distribution(vocabulary: Vocabulary) -> dict[str, float]:
    """Document-frequency distribution of a collection's terms."""
    total = sum(vocabulary.df(term) for term in vocabulary.terms())
    if total == 0:
        return {}
    return {
        term: vocabulary.df(term) / total for term in vocabulary.terms()
    }


def kl_divergence(
    p: Mapping[str, float], q: Mapping[str, float], epsilon: float = 1e-12
) -> float:
    """``KL(p || q)`` with epsilon-smoothing for q's zeros."""
    divergence = 0.0
    for term, p_value in p.items():
        if p_value <= 0:
            continue
        q_value = q.get(term, 0.0)
        divergence += p_value * math.log(p_value / max(q_value, epsilon))
    return divergence


def skew_divergence(
    p: Mapping[str, float],
    q: Mapping[str, float],
    alpha: float = DEFAULT_ALPHA,
) -> float:
    """Lee's skew divergence ``s_alpha(p, q) = KL(p || a*q + (1-a)*p)``.

    Asymmetric by design — exactly the property the paper highlights
    ("fruit" approximates "apple" but not vice versa).
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    mixed = {}
    for term in sorted(set(p) | set(q)):
        mixed[term] = alpha * q.get(term, 0.0) + (1 - alpha) * p.get(term, 0.0)
    return kl_divergence(p, mixed)


def divergence_scores(
    original: Vocabulary, contextualized: Vocabulary
) -> dict[str, float]:
    """Per-term contribution to ``KL(contextualized || original)``.

    Terms whose probability grew after expansion contribute positively;
    ranking by this score is an alternative to the paper's LLR ranking
    (compared in the scoring ablation benchmark).
    """
    p = collection_distribution(contextualized)
    q = collection_distribution(original)
    scores: dict[str, float] = {}
    for term, p_value in p.items():
        if p_value <= 0:
            continue
        q_value = max(q.get(term, 0.0), 1e-12)
        contribution = p_value * math.log(p_value / q_value)
        if contribution > 0:
            scores[term] = contribution
    return scores

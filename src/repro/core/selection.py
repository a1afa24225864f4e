"""Step 3: select facet terms by comparative frequency analysis (Figure 3).

A term qualifies as a candidate when both shift functions are positive;
candidates are ranked by the log-likelihood statistic and the top-k are
returned as ``Facet(D)``.

The stage works on term ids: it reads df and rank by id from the two
:class:`~repro.core.columnar.ColumnarVocabulary` columns (one interner
numbers both), bins each candidate's two ranks with
:func:`~repro.text.zipf.rank_bin` and looks a term's string up only for
a candidate.  Shifts equal the per-term reference functions of
:mod:`repro.core.shifts`, and scores those of
:mod:`repro.core.likelihood`, bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress

from ..observability.context import current_metrics
from ..text.zipf import rank_bin
from .columnar import ColumnarVocabulary, read_column
from .contextualize import ContextualizedDatabase
from .likelihood import LikelihoodTables

#: Default number of facet terms returned (the paper's top-k).
DEFAULT_TOP_K = 200


@dataclass(frozen=True)
class FacetTermCandidate:
    """One selected facet term with its full statistics."""

    term: str
    df_original: int
    df_contextualized: int
    shift_f: int
    shift_r: int
    score: float

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.term} (df {self.df_original} -> {self.df_contextualized}, "
            f"score {self.score:.1f})"
        )


def select_facet_terms(
    database: ContextualizedDatabase,
    top_k: int | None = DEFAULT_TOP_K,
    statistic: str = "log-likelihood",
    require_both_shifts: bool = True,
) -> list[FacetTermCandidate]:
    """Run the Figure 3 selection.

    Parameters
    ----------
    database:
        Output of :func:`repro.core.contextualize.contextualize`.
    top_k:
        Number of facet terms to return, ranked by the statistic; None
        returns every candidate that passes the shift tests (used by the
        recall study — the paper's recall is not top-k-capped, only the
        judged hierarchies are).
    statistic:
        ``"log-likelihood"`` (the paper's choice) or ``"chi-square"``
        (for the ablation study).
    require_both_shifts:
        When False, only the frequency shift is required to be positive
        (rank-shift ablation).
    """
    if top_k is not None and top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k}")
    if statistic not in ("log-likelihood", "chi-square"):
        raise ValueError(f"unknown statistic: {statistic!r}")
    contextualized = database.vocabulary
    df_contextualized = contextualized.df_column()
    candidates = rank_facet_terms(
        compress(range(len(df_contextualized)), df_contextualized),
        database.annotated.vocabulary,
        contextualized,
        len(database.annotated.documents),
        statistic=statistic,
        require_both_shifts=require_both_shifts,
    )
    selected = candidates if top_k is None else candidates[:top_k]
    metrics = current_metrics()
    if metrics is not None:
        metrics.increment("selection.terms_considered", len(contextualized))
        metrics.increment("selection.candidates", len(candidates))
        metrics.increment("selection.selected", len(selected))
    return selected


def rank_facet_terms(
    term_ids: Iterable[int],
    original: ColumnarVocabulary,
    contextualized: ColumnarVocabulary,
    document_count: int,
    *,
    statistic: str,
    require_both_shifts: bool,
) -> list[FacetTermCandidate]:
    """The Figure 3 loop over ``term_ids``: shift tests, score, rank.

    Returns every term that passes the shift tests, sorted by
    ``(-score, term)``.  The key is total, so the ranking does not
    depend on the order of ``term_ids``: the batch selection passes
    every id with ``df_C > 0``, the incremental pipeline only its
    pre-test set (the ids with ``df_C > df``), and both get the same
    list.  An id past a column's end reads as df 0 and, like an id of
    df 0, ranks below every present term (``term_count + 1``).

    Raises :class:`ValueError` when the two vocabularies number their
    terms through different interners.
    """
    if original.interner is not contextualized.interner:
        raise ValueError("the two vocabularies must share one term interner")
    terms = original.interner.terms()
    df_original = original.df_column()
    df_contextualized = contextualized.df_column()
    ranks_original = original.rank_column()
    ranks_contextualized = contextualized.rank_column()
    unknown_original = original.term_count + 1
    unknown_contextualized = contextualized.term_count + 1
    # Per-(df, df_C) memoized scores over shared log terms, bit for bit
    # the scalar statistics (see LikelihoodTables).
    tables = LikelihoodTables(max(document_count, 1))
    score_of = (
        tables.log_likelihood_ratio
        if statistic == "log-likelihood"
        else tables.chi_square
    )
    candidates: list[FacetTermCandidate] = []
    for term_id in term_ids:
        df = read_column(df_original, term_id)
        df_c = read_column(df_contextualized, term_id)
        shift_f = df_c - df
        if shift_f <= 0:
            continue
        rank = read_column(ranks_original, term_id) or unknown_original
        rank_c = read_column(ranks_contextualized, term_id) or unknown_contextualized
        shift_r = rank_bin(rank) - rank_bin(rank_c)
        if require_both_shifts and shift_r <= 0:
            continue
        candidates.append(
            FacetTermCandidate(
                term=terms[term_id],
                df_original=df,
                df_contextualized=df_c,
                shift_f=shift_f,
                shift_r=shift_r,
                score=score_of(df, df_c),
            )
        )
    candidates.sort(key=lambda c: (-c.score, c.term))
    return candidates

"""Step 3: select facet terms by comparative frequency analysis (Figure 3).

A term qualifies as a candidate when both shift functions are positive;
candidates are ranked by the log-likelihood statistic and the top-k are
returned as ``Facet(D)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..observability.context import current_metrics
from ..text.vocabulary import Vocabulary
from .contextualize import ContextualizedDatabase
from .likelihood import LikelihoodTables
from .shifts import ShiftTables

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
    candidates = rank_facet_terms(
        contextualized.terms(),
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
    terms: Iterable[str],
    original: Vocabulary,
    contextualized: Vocabulary,
    document_count: int,
    *,
    statistic: str,
    require_both_shifts: bool,
) -> list[FacetTermCandidate]:
    """The Figure 3 loop over ``terms``: shift tests, score, rank.

    Returns every term that passes the shift tests, sorted by
    ``(-score, term)``.  The key is total, so the ranking does not
    depend on the order of ``terms``: the batch selection passes every
    contextualized term, the incremental pipeline only its pre-test set
    (the terms with ``df_C > df``), and both get the same list.
    """
    # Precomputed tables: df/rank maps plus a rank → bin array
    # (ShiftTables) and per-(df, df_C) memoized scores over shared log
    # terms (LikelihoodTables).  Scores and shifts are bit-for-bit
    # identical to the per-term reference functions — see those classes.
    shifts = ShiftTables(original, contextualized)
    tables = LikelihoodTables(max(document_count, 1))
    score_of = (
        tables.log_likelihood_ratio
        if statistic == "log-likelihood"
        else tables.chi_square
    )
    candidates: list[FacetTermCandidate] = []
    for term in terms:
        df = shifts.df_original(term)
        df_c = shifts.df_contextualized(term)
        shift_f = df_c - df
        if shift_f <= 0:
            continue
        shift_r = shifts.rank_shift(term)
        if require_both_shifts and shift_r <= 0:
            continue
        candidates.append(
            FacetTermCandidate(
                term=term,
                df_original=df,
                df_contextualized=df_c,
                shift_f=shift_f,
                shift_r=shift_r,
                score=score_of(df, df_c),
            )
        )
    candidates.sort(key=lambda c: (-c.score, c.term))
    return candidates

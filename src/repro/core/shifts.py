"""The two shift functions of Section IV-C.

* **Frequency-based shifting**: ``Shift_f(t) = df_C(t) - df(t)``.
  Simple, but Zipfian frequencies make it favour terms that were already
  frequent in the original database.
* **Rank-based shifting**: terms are assigned to logarithmic bins
  ``B(t) = ceil(log2(Rank(t)))``; ``Shift_r(t) = B_D(t) - B_C(t)``
  is positive when the term moved up (to a lower-numbered bin) in the
  contextualized database.

A term is a candidate facet term only when **both** shifts are positive.

These per-term functions over any :class:`~repro.text.vocabulary.Vocabulary`
are the reference.  The selection stage
(:func:`repro.core.selection.rank_facet_terms`) computes the same
integers by term id from the columnar vocabularies' df and rank
columns, calling :func:`repro.text.zipf.rank_bin` itself on each
candidate's two ranks.
"""

from __future__ import annotations

from ..text.vocabulary import Vocabulary
from ..text.zipf import rank_bin


def frequency_shift(term: str, original: Vocabulary, contextualized: Vocabulary) -> int:
    """``Shift_f(t) = df_C(t) - df(t)``."""
    return contextualized.df(term) - original.df(term)


def rank_shift(term: str, original: Vocabulary, contextualized: Vocabulary) -> int:
    """``Shift_r(t) = B_D(t) - B_C(t)`` with logarithmic rank bins.

    A term absent from a database ranks below every present term, which
    places it in the deepest bin — so terms that only exist after
    expansion get a strongly positive rank shift.
    """
    bin_original = rank_bin(original.rank(term))
    bin_contextualized = rank_bin(contextualized.rank(term))
    return bin_original - bin_contextualized


def is_shift_candidate(
    term: str, original: Vocabulary, contextualized: Vocabulary
) -> bool:
    """Both shifts strictly positive — the Figure 3 candidate test."""
    if frequency_shift(term, original, contextualized) <= 0:
        return False
    return rank_shift(term, original, contextualized) > 0

"""Vectorised numpy kernel for the per-trial running-count accounting.

The kernel is integer arithmetic (a gather and running sums) over arrays
drawn by :mod:`truecount.sim`, one column per trial, so its result does not
depend on how the trials are batched.
"""
from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def running_counts(r_cut, weights, classes):
    """Scaled running count of every trial at the cut and after each next card.

    ``r_cut`` is each trial's running count at the cut, ``classes`` the
    weight class of each of its next cards (one row per card) and
    ``weights`` each class's weight, scaled to integers.  Row 0 of the
    (cards + 1, trials) int64 table is ``r_cut``, and row j the count after
    j cards.
    """
    table = np.empty((len(classes) + 1, r_cut.size), dtype=np.int64)
    table[0] = r_cut
    # The classes index ``weights`` in range, so "clip" clips nothing; it
    # spares the buffered copy of ``out`` that the default mode makes.
    weights.take(classes, out=table[1:], mode="clip")
    # Row by row: a cumsum along the card axis takes longer.
    for j in range(1, len(table)):
        table[j] += table[j - 1]
    return table

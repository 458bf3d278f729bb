"""Vectorised numpy kernel for the per-trial running-count accounting.

The kernel is integer arithmetic (a gather and running sums) over arrays
drawn by :mod:`truecount.sim`, one column per trial, so its result does not
depend on how the trials are batched.  It returns each trial's running-count
change past the cut, not the count itself, in the smallest integer type
that holds every change the tail can make; the caller adds the cut count.
"""
from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def running_counts(weights, after):
    """Scaled running-count change of every trial after each next card.

    ``weights`` holds each weight class's weight, scaled to integers, in
    class order, and ``after`` how many classes follow the class of each
    trial's next cards (one row per card): the card is of class
    ``len(weights) - 1 - after``, so its weight is read from ``weights``
    reversed.  Row 0 of the (cards + 1, trials) table is zero, and row j the
    change after j cards.  No change passes ``bound`` = max |weight| × cards
    in size, so the table takes the smallest integer type that holds
    -bound - 1: it then holds +bound too (-bound alone gives int8 at bound
    128, which +128 overflows).  ``bound`` must lie below 2**63.
    """
    bound = int(np.abs(weights).max()) * len(after)
    dtype = np.min_scalar_type(-bound - 1)
    table = np.empty((len(after) + 1, after.shape[-1]), dtype=dtype)
    table[0] = 0
    # The counts index ``weights`` in range, so "clip" clips nothing; it
    # spares the buffered copy of ``out`` that the default mode makes.
    weights[::-1].astype(dtype).take(after, out=table[1:], mode="clip")
    # Row by row: a cumsum along the card axis takes longer.
    for j in range(1, len(table)):
        table[j] += table[j - 1]
    return table

"""Vectorised numpy kernel for the per-trial running-count accounting.

The kernel is integer arithmetic (cumulative sums) over arrays drawn by
:mod:`truecount.sim`, so its result does not depend on how the trials are
batched.
"""
from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def running_counts(r_cut, tail, *ns):
    """Scaled running count after each of ``ns`` tail cards, one array per n.

    ``r_cut`` is each trial's running count at the cut and ``tail`` its next
    card weights, both scaled to integers; each n is a card count per trial
    (an array) or for all trials (an int), from 0 to the tail's length.
    """
    trials, length = tail.shape
    cums = np.zeros((trials, length + 1), dtype=np.int64)
    np.cumsum(tail, axis=1, out=cums[:, 1:])
    rows = np.arange(trials)
    return [r_cut + cums[rows, n] for n in ns]

"""Vectorised numpy kernel for the per-trial seat accounting.

The kernel is integer arithmetic (cumulative sums) over arrays drawn by
:mod:`truecount.sim`, so its result does not depend on how the trials are
batched.
"""
from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


# -- seat-sigma tallies ------------------------------------------------------
#
# Inputs: the running-count contribution of the cards seen up to the cut
# (scaled to integers), the next cards of each shoe, and per-trial card
# counts between the bet/play and play/dealer moments.  Outputs are the
# scaled running counts at the three moments.

def seat_tallies(r_cut, tail, n_bet, n_play):
    trials = r_cut.shape[0]
    cums = np.cumsum(tail.astype(np.int64), axis=1)
    rows = np.arange(trials)
    r_play = r_cut + np.where(n_bet > 0, cums[rows, np.maximum(n_bet, 1) - 1], 0)
    total = n_bet + n_play
    r_dealer = r_cut + np.where(total > 0, cums[rows, np.maximum(total, 1) - 1], 0)
    return r_cut.copy(), r_play, r_dealer

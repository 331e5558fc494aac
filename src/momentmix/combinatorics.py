"""Index and monomial machinery.

Variable labels run over ``1..n``; label ``0`` is the homogenizing
coordinate (constant 1).  A squarefree monomial is identified with the
strictly increasing tuple of its variable labels, so a monomial set is an
(n, s) int64 array with one label subset per row, rows in lexicographic
order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if k > n:
        return 0
    return math.comb(n, k)


def subsets_lex(lo: int, hi: int, size: int) -> np.ndarray:
    """All ``size``-element subsets of {lo, ..., hi} as the rows of a
    (C(hi - lo + 1, size), size) int64 array, each ascending, in ascending
    lexicographic order: one empty row at size 0, no rows for an empty
    range."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    labels = range(lo, hi + 1)
    n = binomial(len(labels), size)
    slots = itertools.chain.from_iterable(itertools.combinations(labels, size))
    return np.fromiter(slots, dtype=np.int64, count=n * size).reshape(n, size)


def lex_positions(subsets: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Index in ``subsets``, an (N, s) array of label subsets in the order
    of ``subsets_lex``, of each s-label set along the last axis of
    ``sets``, its labels in any order; every set must be one of them."""
    radix = (int(subsets.max()) + 1) ** np.arange(subsets.shape[1] - 1, -1, -1)
    # a sorted tuple's radix code grows with its lexicographic rank
    return np.searchsorted(subsets @ radix, np.sort(sets, axis=-1) @ radix)

"""Index and monomial machinery.

Variable labels run over ``1..n``; label ``0`` is the homogenizing
coordinate (constant 1).  A squarefree monomial is identified with the
strictly increasing tuple of its variable labels, so monomial sets are
ordered lists of integer tuples.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

IndexSubset = tuple[int, ...]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if k > n:
        return 0
    return math.comb(n, k)


def subsets_lex(lo: int, hi: int, size: int) -> list[IndexSubset]:
    """All ``size``-element subsets of {lo, ..., hi} in ascending
    lexicographic order of their sorted tuples."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size == 0:
        return [()]
    if hi < lo:
        return []
    return list(itertools.combinations(range(lo, hi + 1), size))


def lex_positions(subsets: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Index in ``subsets``, an (N, s) array of label subsets in the order
    of ``subsets_lex``, of each s-label set along the last axis of
    ``sets``, its labels in any order; every set must be one of them."""
    radix = (int(subsets.max()) + 1) ** np.arange(subsets.shape[1] - 1, -1, -1)
    # a sorted tuple's radix code grows with its lexicographic rank
    return np.searchsorted(subsets @ radix, np.sort(sets, axis=-1) @ radix)

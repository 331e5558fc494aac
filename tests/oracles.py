"""Per-column generating-matrix systems, the reference that tests hold the
library's stacked solve against, and the monomial bases that index them;
and, found from the keys alone, each key's row of a ``PrefixTree``'s leaf
products and those products.

Variable labels run over ``1..n``; label ``0`` is the homogenizing
coordinate.  The library builds the same systems for all tail labels at
once (``generating.solve_generating_matrix``), so these are used by tests
only.
"""

from __future__ import annotations

import itertools

import numpy as np

from momentmix.combinatorics import IndexSubset, binomial, subsets_lex
from momentmix.errors import RankTooLarge
from momentmix.tensor_store import (
    IncompleteSymmetricTensor,
    PrefixTree,
    block_matrix,
    component_products,
)


def basis_B0(k: int, p: int, r: int) -> list[IndexSubset]:
    """First ``r`` degree-p squarefree monomials in the head variables
    ``1..k``, in lexicographic order.

    All candidates share degree p, so graded-lexicographic order reduces
    to plain lexicographic order on the sorted index tuples.
    """
    if not (1 <= p <= k):
        raise ValueError(f"need 1 <= p <= k, got p={p}, k={k}")
    if binomial(k, p) < r:
        raise RankTooLarge(r)
    return subsets_lex(1, k, p)[:r]


def basis_B1(k: int, p: int, n: int) -> list[IndexSubset]:
    """All monomials x_{j1}...x_{jp} x_{j_{p+1}} with the first p labels
    in ``1..k`` and the last in ``k+1..n``, lexicographic order."""
    if not (p <= k < n):
        raise ValueError(f"need p <= k < n, got p={p}, k={k}, n={n}")
    out = []
    for head in subsets_lex(1, k, p):
        for j in range(k + 1, n + 1):
            out.append(head + (j,))
    return out


def support_O_alpha(
    alpha: IndexSubset, k: int, n: int, m: int, p: int
) -> list[IndexSubset]:
    """Equation-support tuples for a column labelled by ``alpha``: all
    (m-p-1)-subsets of the tail labels ``k+1..n`` avoiding alpha's own
    tail label, in lexicographic order."""
    j_tail = alpha[-1]
    if not (k + 1 <= j_tail <= n):
        raise ValueError(f"tail label {j_tail} of alpha not in [{k + 1}, {n}]")
    pool = [s for s in range(k + 1, n + 1) if s != j_tail]
    size = m - p - 1
    if size == 0:
        return [()]
    return list(itertools.combinations(pool, size))


def assemble_system(
    T: IncompleteSymmetricTensor,
    alpha: IndexSubset,
    B0: list[IndexSubset],
    k: int,
    n: int,
    m: int,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear system for the G-column of ``alpha``: rows indexed by the
    support tuples of alpha, columns by B0.

    A[gamma, beta] is the tensor entry at beta + gamma padded with label 0
    (degree m-1 monomial); b[gamma] is the entry at alpha + gamma.
    """
    support = support_O_alpha(alpha, k, n, m, p)
    A = block_matrix(T, support, B0, pad_with_zero_label=True)
    b = block_matrix(T, support, [alpha])[:, 0]
    return A, b


def leaf_rows(tree: PrefixTree, keys: np.ndarray) -> np.ndarray:
    """Each key's row of the tree's leaf products, found from the (n, m)
    keys: its leaf prefix in tree order is its first slot at m = 2, else
    the number of changes of the first m-1 slots from row to row before
    it; ``order`` lists the rows' prefixes in tree order."""
    if keys.shape[1] == 2:
        prefix = keys[:, 0]
    else:
        new = np.ones(len(keys), dtype=bool)
        new[1:] = (keys[1:, :-1] != keys[:-1, :-1]).any(axis=1)
        prefix = np.cumsum(new) - 1
    row_of = np.full(int(prefix.max(initial=0)) + 1, -1)
    row_of[tree.order] = np.arange(len(tree.order))
    return row_of[prefix]


def leaf_products(tree: PrefixTree, keys: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(n_rows, r) products of (r, d) vectors over the prefixes of the
    tree's leaf rows, found from the keys: each key's first m-1 slots
    multiplied left to right (``component_products``) in its row."""
    leaf = np.zeros((len(tree.order), vectors.shape[0]), dtype=vectors.dtype)
    leaf[leaf_rows(tree, keys)] = component_products(vectors, keys[:, :-1]).T
    return leaf

"""Per-column generating-matrix systems, the reference that tests hold the
library's stacked solve against, and the monomial bases that index them;
the exact stages computed label by label and candidate by candidate, the
references that the library's one-gather, eigenvalue-screened and stacked
stages equal bit for bit; found from the keys alone, each key's row of a
``PrefixTree``'s leaf products and those products; and the key sets of
the array key builders as tuple lists from ``itertools``.

Variable labels run over ``1..n``; label ``0`` is the homogenizing
coordinate.  The library builds the same systems for all tail labels at
once (``generating.solve_generating_matrix``), so these are used by tests
only.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from momentmix.combinatorics import binomial, subsets_lex
from momentmix.decomposition import DecompositionParams, _tail_blocks
from momentmix.errors import (
    DegenerateSpectrum,
    HeadsDegenerate,
    IllConditioned,
    RankTooLarge,
)
from momentmix.generating import _GAP_TOL, _MAX_XI_RETRIES, GeneratingMatrix
from momentmix.numerics import COND_LIMIT, eig, gaussian_vector, lstsq
from momentmix.tensor_store import (
    IncompleteSymmetricTensor,
    PrefixTree,
    block_keys,
    block_matrix,
    component_products,
)

IndexSubset = tuple[int, ...]


def subsets_by_itertools(lo: int, hi: int, size: int) -> list[IndexSubset]:
    """The ``size``-subsets of {lo, ..., hi} as sorted tuples, lexicographic
    order, from ``itertools.combinations``."""
    return list(itertools.combinations(range(lo, hi + 1), size))


def covariance_keys_by_itertools(d: int, m: int, j: int) -> list[IndexSubset]:
    """Keys (j, j) + gamma, sorted, for the (m-2)-subsets gamma of the
    coordinates other than j in lexicographic order."""
    others = [s for s in range(d) if s != j]
    return [tuple(sorted((j, j) + gamma)) for gamma in itertools.combinations(others, m - 2)]


def learning_keys_by_set(d: int, m: int) -> list[IndexSubset]:
    """The order-m keys that learning reads as the sorted union of tuple
    sets: the distinct-index keys and every coordinate's repeated-pair
    keys."""
    keys = set(subsets_by_itertools(0, d - 1, m))
    for j in range(d):
        keys.update(covariance_keys_by_itertools(d, m, j))
    return sorted(keys)


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
    return subsets_by_itertools(1, k, p)[:r]


def basis_B1(k: int, p: int, n: int) -> list[IndexSubset]:
    """All monomials x_{j1}...x_{jp} x_{j_{p+1}} with the first p labels
    in ``1..k`` and the last in ``k+1..n``, lexicographic order."""
    if not (p <= k < n):
        raise ValueError(f"need p <= k < n, got p={p}, k={k}, n={n}")
    out = []
    for head in subsets_by_itertools(1, k, p):
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


def generating_matrix_by_label(
    T: IncompleteSymmetricTensor, r: int, p: int, k: int
) -> GeneratingMatrix:
    """G gathered label by label: each tail label's design and right-hand
    sides are gathered for it alone, so a key shared by several labels is
    gathered once per label; then the one stacked ``lstsq``."""
    n, m = T.d - 1, T.m
    heads = subsets_lex(1, k, p)
    labels = range(k + 1, n + 1)
    pool = subsets_lex(k + 1, n, m - p - 1)
    A, B = [], []
    for j in labels:
        support = pool[(pool != j).all(axis=1)]
        A.append(T.gather(block_keys(support, np.pad(heads[:r], ((0, 0), (1, 0))))))
        B.append(T.gather(block_keys(
            np.column_stack([support, np.full(len(support), j)]), heads)))
    report = lstsq(np.stack(A), np.stack(B))
    return GeneratingMatrix(
        values=report.solution.transpose(1, 2, 0).reshape(r, -1),
        residuals=report.residual_norm.T.ravel(),
        ranks=report.rank,
        conds=report.cond,
    )


def _relative_gap(values: np.ndarray) -> float:
    if values.size < 2:
        return float("inf")
    spread = float(np.abs(values[:, None] - values[None, :]).max())
    if spread == 0:
        return 0.0
    idx = np.triu_indices(values.size, k=1)
    min_dist = float(np.abs(values[:, None] - values[None, :])[idx].min())
    return min_dist / spread


def tails_by_full_eig(
    Ns: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """``extract_tails`` with every xi candidate eigendecomposed in full,
    eigenvectors and all, and the widest-gap one kept."""
    n_tail, r = Ns.shape[:2]
    best_gap, best_vecs = -1.0, None
    for attempt in range(_MAX_XI_RETRIES):
        xi = gaussian_vector(seed, 2 * n_tail, "xi", attempt).view(complex)
        values, vectors = eig(np.tensordot(xi, Ns, axes=(0, 0)))
        gap = _relative_gap(values)
        if gap > best_gap:
            best_gap, best_vecs = gap, vectors
        if r == 1:
            break
    if best_gap < _GAP_TOL and r > 1:
        raise DegenerateSpectrum(f"eigenvalue gap {best_gap:.2e}")
    vecs = best_vecs.T[:, None, :, None]
    tails = (vecs.conj().swapaxes(-1, -2) @ (Ns @ vecs))[:, :, 0, 0]
    return tails, best_vecs, best_gap


def gram_lstsq_one(gram, b, adjoint, apply, name, degenerate):
    """``decomposition._gram_lstsq`` for one system: an (r, r) Gram, x (r,)
    and its condition number, ``degenerate(reason)`` raised on a zero
    column or a rank-deficient design."""
    scale = np.sqrt(np.diag(gram).real)
    if np.any(scale == 0):
        raise degenerate("has a zero column")
    unit = np.triu(gram, 1) / np.outer(scale, scale)
    unit += unit.conj().T
    np.fill_diagonal(unit, 1.0)
    w, V = np.linalg.eigh(unit)
    if not w[0] > len(scale) * np.finfo(float).eps * w[-1]:
        raise degenerate("rank-deficient")
    if w[-1] / w[0] > COND_LIMIT:
        warnings.warn(f"{name} least-squares system is ill-conditioned", IllConditioned)

    def solve(rhs):
        c = adjoint(rhs) / scale
        return (V @ ((V.conj().T @ c) / w)) / scale

    x = solve(b)
    x += solve(b - apply(x))
    return x, float(np.sqrt(w[-1] / w[0]))


def heads_by_label(
    T: IncompleteSymmetricTensor,
    tails: np.ndarray,
    gammas: np.ndarray,
    params: DecompositionParams,
) -> tuple[np.ndarray, float]:
    """``solve_heads`` one head label at a time, each label's right-hand
    sides gathered for it alone: ``gram_lstsq_one`` per label."""
    J1, J2, W = _tail_blocks(T, tails, params)
    W_conj = W.conj()
    tail_gram = W_conj.T @ W
    heads = np.empty((params.r, params.k), dtype=complex)
    cond = 1.0
    for j in range(1, params.k + 1):
        rows = [i for i, beta in enumerate(J1.tolist()) if j not in beta]
        B = block_matrix(T, np.column_stack([np.full(len(rows), j), J1[rows]]), J2)
        Gamma = gammas[rows]
        heads[:, j - 1], cond_j = gram_lstsq_one(
            (Gamma.conj().T @ Gamma) * tail_gram,
            B,
            lambda rhs: (Gamma.conj() * (rhs @ W_conj)).sum(axis=0),
            lambda x: (Gamma * x) @ W.T,
            "head",
            lambda _: HeadsDegenerate(f"head design rank-deficient at label {j}"),
        )
        cond = max(cond, cond_j)
    return heads, cond

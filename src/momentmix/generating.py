"""Generating-matrix linear systems, companion matrices, and tail
extraction by eigendecomposition.

The matrix ``G`` has one column per monomial in the mixed basis (head
subset plus one tail label) and one row per monomial in the head basis.
A column's linear system has a design matrix that depends only on its
tail label, and every tail label's design has the same shape, so ``G``
is one stacked least squares.  Each distinct tensor key is gathered
once: every label's design rows index one gather over the support
tuples, and its right-hand-side rows one gather over the tail subsets
that a support tuple and its label make.  Its r x r slices indexed by a
tail label form a commuting family whose common eigenvectors reveal the
tail coordinates of the components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import binomial, lex_positions, subsets_lex
from .errors import DegenerateSpectrum, ShapeCondition
from .numerics import eig, eigvals, gaussian_vector, lstsq
from .tensor_store import IncompleteSymmetricTensor, block_keys

_GAP_TOL = 1e-8
_MAX_XI_RETRIES = 5


@dataclass
class GeneratingMatrix:
    """r x |B1| complex matrix.  Row b is the head monomial B0[b]; columns
    are head-major, column h * (n - k) + (j - k - 1) holding heads[h] + (j,)
    for the lexicographic degree-p heads of 1..k and the tail labels j in
    k+1..n.  B0 is the first r heads."""

    values: np.ndarray
    residuals: np.ndarray  # per-column lstsq residual norms
    ranks: np.ndarray  # (n - k,) design rank per tail label k+1..n
    conds: np.ndarray  # (n - k,) design condition number per tail label


def solve_generating_matrix(
    T: IncompleteSymmetricTensor, r: int, p: int, k: int
) -> GeneratingMatrix:
    """Solve the least-squares systems of all tail labels as one stack to
    build G.

    The columns alpha = head + (j,) that share a tail label j share one
    design matrix: its rows are the support tuples of j, the
    (m-p-1)-subsets of the tail labels avoiding j, as many for every j,
    and its columns the first r heads padded with label 0.  Each distinct
    key is gathered once: the designs A (n - k, S, r) index the rows of
    one (|pool|, r) gather over all support tuples, and the right-hand
    sides B (n - k, S, |heads|) the rows of one gather over the
    C(n-k, m-p) tail subsets, the sorted support + (j,) of each row.  One
    stacked ``lstsq`` solves them.  On exact rank-r generic input every
    per-column residual vanishes; on noisy input the same code path
    yields the least-squares G.
    """
    n = T.d - 1
    m = T.m
    if binomial(k, p) < r or binomial(n - k - 1, m - p - 1) < r:
        raise ShapeCondition(
            f"need C({k},{p}) >= {r} and C({n - k - 1},{m - p - 1}) >= {r}"
        )
    heads = subsets_lex(1, k, p)
    labels = np.arange(k + 1, n + 1)
    pool = subsets_lex(k + 1, n, m - p - 1)
    # label index t and support tuple of every row, label by label
    t, row = np.nonzero((pool[None, :, :] != labels[:, None, None]).all(axis=2))
    # heads lie in 1..k and tail labels in k+1..n, so no key repeats a label
    A = T.gather(block_keys(pool, np.pad(heads[:r], ((0, 0), (1, 0)))))[row]
    tail_sets = subsets_lex(k + 1, n, m - p)
    B = T.gather(block_keys(tail_sets, heads))[
        lex_positions(tail_sets, np.column_stack([pool[row], labels[t]]))]
    report = lstsq(A.reshape(len(labels), -1, r), B.reshape(len(labels), -1, len(heads)))
    return GeneratingMatrix(
        values=report.solution.transpose(1, 2, 0).reshape(r, -1),
        residuals=report.residual_norm.T.ravel(),
        ranks=report.rank,
        conds=report.cond,
    )


def companion_matrices(G: GeneratingMatrix) -> np.ndarray:
    """The (n - k, r, r) stack of N_l for l = k+1..n with N_l[nu, beta] =
    G(beta, nu + e_l): the columns of the first r heads in G's head-major
    layout, which has one column per head and tail label, the n - k labels
    of ``G.ranks``."""
    r = G.values.shape[0]
    by_head = G.values.reshape(r, -1, G.ranks.size)[:, :r]  # [beta, nu, l]
    return np.ascontiguousarray(by_head.transpose(2, 1, 0))


def extract_tails(
    Ns: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Rayleigh-quotient tails from a random combination of the (n - k, r,
    r) companion stack ``companion_matrices`` returns.

    Draws several complex xi ~ N(0, I) + i N(0, I) candidates and screens
    them by the eigenvalues of N(xi) alone (``numerics.eigvals``), keeping
    the one with the widest relative eigenvalue gap.  Only that winner is
    eigendecomposed in full; its eigenvalues are those of the screen, bit
    for bit on every input tried, and the returned gap is computed from
    them.  Returns per-eigenvector tails w_i[j] = v_i^H N_{k+1+j} v_i
    together with the eigenvectors and the gap.  A well-separated
    spectrum keeps the eigenvectors stable against perturbations of the
    companion matrices, so the candidate count trades a few extra
    eigenvalue computations for accuracy on noisy input.
    """
    n_tail, r = Ns.shape[:2]
    best_gap, best = -1.0, None
    for attempt in range(_MAX_XI_RETRIES):
        xi = gaussian_vector(seed, 2 * n_tail, "xi", attempt).view(complex)
        N_xi = np.tensordot(xi, Ns, axes=(0, 0))
        gap = _relative_gap(eigvals(N_xi))
        if gap > best_gap:
            best_gap, best = gap, N_xi
        if r == 1:
            break
    if best_gap < _GAP_TOL and r > 1:
        raise DegenerateSpectrum(
            f"eigenvalue gap {best_gap:.2e} below {_GAP_TOL} after "
            f"{_MAX_XI_RETRIES} random combinations"
        )
    values, vectors = eig(best)
    # tails[i, j] = v_i^H N_j v_i for every (i, j) in two broadcast
    # matmuls.  Each is a batch of matrix-vector and vector-vector
    # products, the same ones a loop over (i, j) makes; a matrix-matrix
    # product would round differently, and the later stages amplify that.
    vecs = vectors.T[:, None, :, None]  # (r, 1, r, 1): v_i as a column
    tails = (vecs.conj().swapaxes(-1, -2) @ (Ns @ vecs))[:, :, 0, 0]
    return tails, vectors, _relative_gap(values)


def _relative_gap(values: np.ndarray) -> float:
    if values.size < 2:
        return float("inf")
    dist = np.abs(values[:, None] - values[None, :])
    spread = float(dist.max())
    if spread == 0:
        return 0.0
    return float(dist[np.triu_indices(values.size, k=1)].min()) / spread

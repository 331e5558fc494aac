"""Generating-matrix linear systems, companion matrices, and tail
extraction by eigendecomposition.

The matrix ``G`` has one column per monomial in the mixed basis (head
subset plus one tail label) and one row per monomial in the head basis.
A column's linear system has a design matrix that depends only on its
tail label, so ``G`` is solved as one least-squares system per tail
label with every head subset as a right-hand side.  Its r x r slices
indexed by a tail label form a commuting family whose common
eigenvectors reveal the tail coordinates of the components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .combinatorics import (
    IndexSubset,
    basis_B0,
    basis_B1,
    binomial,
    subsets_lex,
    support_O_alpha,
)
from .errors import DegenerateSpectrum, ShapeCondition
from .numerics import eig, gaussian_vector, lstsq
from .tensor_store import IncompleteSymmetricTensor, block_matrix

_GAP_TOL = 1e-8
_MAX_XI_RETRIES = 5


@dataclass
class GeneratingMatrix:
    """r x |B1| complex matrix with row labels B0 and column labels B1."""

    values: np.ndarray
    row_labels: list[IndexSubset]
    col_labels: list[IndexSubset]
    residuals: np.ndarray  # per-column lstsq residual norms
    ranks: np.ndarray  # (n - k,) design rank per tail label k+1..n
    k: int
    p: int
    n: int

    col_index: dict[IndexSubset, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.col_index:
            self.col_index = {c: i for i, c in enumerate(self.col_labels)}

    @property
    def r(self) -> int:
        return self.values.shape[0]

    def column(self, alpha: IndexSubset) -> np.ndarray:
        return self.values[:, self.col_index[tuple(alpha)]]


@dataclass
class CompanionSet:
    """Matrices N_{k+1}..N_n; entry (nu, beta) of N_l is G(beta, nu + e_l)."""

    matrices: np.ndarray  # (n - k, r, r)
    k: int
    p: int
    n: int

    @property
    def r(self) -> int:
        return self.matrices.shape[1]


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


def solve_generating_matrix(
    T: IncompleteSymmetricTensor, r: int, p: int, k: int
) -> GeneratingMatrix:
    """Solve one least-squares system per tail label to build G.

    The columns alpha = head + (j,) that share a tail label j share the
    design matrix of ``assemble_system``, whose rows are the support
    tuples of j; their right-hand sides are solved together.  On exact
    rank-r generic input every per-column residual vanishes; on noisy
    input the same code path yields the least-squares G.
    """
    n = T.d - 1
    m = T.m
    if binomial(k, p) < r or binomial(n - k - 1, m - p - 1) < r:
        raise ShapeCondition(
            f"need C({k},{p}) >= {r} and C({n - k - 1},{m - p - 1}) >= {r}"
        )
    B0 = basis_B0(k, p, r)
    B1 = basis_B1(k, p, n)
    heads = subsets_lex(1, k, p)
    # B1 is head-major: column h * (n - k) + (j - k - 1) is heads[h] + (j,)
    values = np.empty((r, len(heads), n - k), dtype=complex)
    residuals = np.empty((len(heads), n - k))
    ranks = np.empty(n - k, dtype=int)
    for t, j in enumerate(range(k + 1, n + 1)):
        support = support_O_alpha(heads[0] + (j,), k, n, m, p)
        A = block_matrix(T, support, B0, pad_with_zero_label=True)
        B = block_matrix(T, support, [head + (j,) for head in heads])
        report = lstsq(A, B)
        values[:, :, t] = report.solution
        residuals[:, t] = report.residual_norm
        ranks[t] = report.rank
    return GeneratingMatrix(
        values=values.reshape(r, len(B1)), row_labels=B0, col_labels=B1,
        residuals=residuals.ravel(), ranks=ranks, k=k, p=p, n=n,
    )


def companion_matrices(G: GeneratingMatrix) -> CompanionSet:
    """Build N_l for l = k+1..n with N_l[nu, beta] = G(beta, nu + e_l)."""
    tail_labels = range(G.k + 1, G.n + 1)
    cols = [[G.col_index[nu + (l,)] for nu in G.row_labels] for l in tail_labels]
    mats = np.ascontiguousarray(G.values[:, cols].transpose(1, 2, 0))  # (n - k, r, r)
    return CompanionSet(matrices=mats, k=G.k, p=G.p, n=G.n)


def extract_tails(
    Ns: CompanionSet, seed: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Rayleigh-quotient tails from a random combination of the companions.

    Draws several complex xi ~ N(0, I) + i N(0, I) candidates, keeps the
    eigendecomposition of N(xi) with the widest relative eigenvalue gap,
    and returns per-eigenvector tails w_i[j] = v_i^H N_{k+1+j} v_i
    together with the eigenvectors and the gap.  A well-separated
    spectrum keeps the eigenvectors stable against perturbations of the
    companion matrices, so the candidate count trades a few extra
    eigendecompositions for accuracy on noisy input.
    """
    n_tail, r = Ns.matrices.shape[0], Ns.r
    best_gap, best_vecs = -1.0, None
    for attempt in range(_MAX_XI_RETRIES):
        xi = gaussian_vector(seed, 2 * n_tail, "xi", attempt).view(complex)
        N_xi = np.tensordot(xi, Ns.matrices, axes=(0, 0))
        pairs = eig(N_xi)
        gap = _relative_gap(pairs.values)
        if gap > best_gap:
            best_gap, best_vecs = gap, pairs.vectors
        if r == 1:
            break
    if best_gap < _GAP_TOL and r > 1:
        raise DegenerateSpectrum(
            f"eigenvalue gap {best_gap:.2e} below {_GAP_TOL} after "
            f"{_MAX_XI_RETRIES} random combinations"
        )
    # tails[i, j] = v_i^H N_j v_i for every (i, j) in two broadcast
    # matmuls.  Each is a batch of matrix-vector and vector-vector
    # products, the same ones a loop over (i, j) makes; a matrix-matrix
    # product would round differently, and the later stages amplify that.
    vecs = best_vecs.T[:, None, :, None]  # (r, 1, r, 1): v_i as a column
    tails = (vecs.conj().swapaxes(-1, -2) @ (Ns.matrices @ vecs))[:, :, 0, 0]
    return tails, best_vecs, best_gap


def _relative_gap(values: np.ndarray) -> float:
    if values.size < 2:
        return float("inf")
    spread = float(np.abs(values[:, None] - values[None, :]).max())
    if spread == 0:
        return 0.0
    idx = np.triu_indices(values.size, k=1)
    min_dist = float(np.abs(values[:, None] - values[None, :])[idx].min())
    return min_dist / spread

"""Per-column generating-matrix systems, the reference that tests hold the
library's stacked solve against, the monomial bases that index them and
``block_matrix``, the checked block of tensor entries they are gathered
by; the exact stages computed label by label and candidate by
candidate, the references that the library's one-gather,
eigenvalue-screened and stacked stages equal bit for bit; found from the
keys alone, each key's row of a ``PrefixTree``'s leaf products and those
products; the key sets of the array key builders as tuple lists from
``itertools``; the tensor reader that parses with the stdlib's ``json``
and checks keys by type inference, the reference for
``tensor_store.from_json``'s values, keys and errors, the writer that
encodes one record dict per entry with it, the reference for
``tensor_store.to_json``'s bytes, and the mapping constructor on
``_key_array`` and a lexsort, the reference for the constructor's keys,
values and errors; and the reader of ``decomposition.to_json`` text,
``decomposition_from_json``.

Variable labels run over ``1..n``; label ``0`` is the homogenizing
coordinate.  The library builds the same systems for all tail labels at
once (``generating.solve_generating_matrix``), so these are used by tests
only.
"""

from __future__ import annotations

import itertools
import json
import warnings

import numpy as np

from momentmix.combinatorics import binomial, subsets_lex
from momentmix.decomposition import Decomposition, DecompositionParams, _tail_blocks
from momentmix.errors import (
    DegenerateSpectrum,
    HeadsDegenerate,
    IllConditioned,
    InvalidTensor,
    MomentmixError,
    RankTooLarge,
)
from momentmix.generating import _GAP_TOL, _MAX_XI_RETRIES, GeneratingMatrix
from momentmix.numerics import COND_LIMIT, eig, lstsq, rng_from
from momentmix.tensor_store import (
    IncompleteSymmetricTensor,
    PrefixTree,
    _bad_record,
    _int_field,
    _key_array,
    block_keys,
    component_products,
)

IndexSubset = tuple[int, ...]


class KeyCollision(MomentmixError):
    """Row and column label sets of a block overlap."""


def block_matrix(T: IncompleteSymmetricTensor, rows, cols) -> np.ndarray:
    """Matrix of tensor entries at keys row + col of the (n_rows, a) rows
    and (n_cols, b) columns; a row that holds the padding label 0 lists it.
    Every (row, col) pair must join into m distinct labels."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    labels = np.sort(block_keys(rows, cols), axis=2)
    shared = (labels[:, :, 1:] == labels[:, :, :-1]).any(axis=2)
    if shared.any():
        i, j = np.argwhere(shared)[0]
        raise KeyCollision(f"row {tuple(rows[i].tolist())} and col "
                           f"{tuple(cols[j].tolist())} share labels")
    if labels.shape[2] != T.m:
        raise ValueError(f"row {tuple(rows[0].tolist())} + col {tuple(cols[0].tolist())} "
                         f"has {labels.shape[2]} labels, need {T.m}")
    return T.gather(labels)


def decomposition_from_json(text: str) -> Decomposition:
    """The components and diagnostics of ``decomposition.to_json`` text."""
    doc = json.loads(text)
    comps = np.array(
        [np.asarray(c["re"]) + 1j * np.asarray(c["im"]) for c in doc["components"]]
    )
    return Decomposition(components=comps, diagnostics=doc.get("diagnostics", {}))


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


def from_json_by_json(text: str) -> IncompleteSymmetricTensor:
    """Tensor from ``to_json`` text read by ``json.loads``, each value
    column filled from a list and the keys by ``_key_array``."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InvalidTensor("tensor document must be a JSON object")
    d, m = (_int_field(doc, name) for name in ("d", "m"))
    records = doc.get("entries")
    if not isinstance(records, list):
        raise InvalidTensor("tensor document needs an 'entries' list")
    values = np.empty(len(records), dtype=complex)
    try:
        re = [rec["re"] for rec in records]
        im = [rec.get("im", 0.0) for rec in records]
        if not set(map(type, re)).union(map(type, im)) <= {int, float}:
            raise TypeError
        values.real = re
        values.imag = im
        keys = [rec["key"] for rec in records]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        raise InvalidTensor(_bad_record(records)) from None
    return IncompleteSymmetricTensor._from_arrays(d, m, _key_array(keys, m), values)


def to_json_by_json(T: IncompleteSymmetricTensor) -> str:
    """Compact ``json.dumps`` of the tensor document, one record dict per
    stored key in key order."""
    records = [{"key": k, "re": re, "im": im} for k, re, im in zip(
        T.key_array.tolist(), T.values.real.tolist(), T.values.imag.tolist())]
    return json.dumps({"d": T.d, "m": T.m, "entries": records}, separators=(",", ":"))


def tensor_by_key_array(d: int, m: int, entries) -> IncompleteSymmetricTensor:
    """Tensor of a key-tuple mapping, its keys checked by ``_key_array``
    and always lexsorted."""
    keys = _key_array(list(entries), m)
    order = np.lexsort(keys.T[::-1])
    values = np.array(list(entries.values()), dtype=complex)
    return IncompleteSymmetricTensor._from_arrays(d, m, keys[order], values[order])


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
    A = block_matrix(T, [(0,) + gamma for gamma in support], B0)
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
        xi = rng_from(seed, "xi", attempt).standard_normal(2 * n_tail).view(complex)
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

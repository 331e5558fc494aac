"""End-to-end incomplete symmetric tensor decomposition (exact pipeline),
its noisy variant with nonlinear refinement, and rank-bound selection.

The exact pipeline recovers rank-r components from the distinct-index
entries alone: generating matrix -> companion matrices -> eigen tails ->
three least-squares stages for the head coordinates and scales.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .combinatorics import binomial, lex_positions, subsets_lex
from .errors import (
    HeadsDegenerate,
    IllConditioned,
    RankTooLarge,
    ScalesDegenerate,
    TailsDegenerate,
)
from .generating import companion_matrices, extract_tails, solve_generating_matrix
from .numerics import COND_LIMIT, lstsq, nlls_refine
from .tensor_store import (
    IncompleteSymmetricTensor,
    block_keys,
    component_products,
    product_jacobian,
    weighted_norm,
)
# Not called here: the benchmark's span tracer wraps these by name in this module.
from .tensor_store import from_components, omega_norm  # noqa: F401

# ``decompose`` warns IllConditioned when gen_cond, the largest condition
# number of the generating-matrix designs, exceeds this.  Every design
# column is padded with label 0, so one component with a tiny coordinate 0
# raises all of them.  Measured: 1.7e7 on the [215, 4, 5] rank-55 tensor at
# d=25, which decomposes to a relative error of 1.7e-5; 1.6e4 to 1.7e5 on
# the benchmark's rank-55 pool, at most 1.1e-10; 6.3e3 on its noisy
# order-4 tensor; 71 and 449 on its two mixtures' moments.
GEN_COND_LIMIT = 1e6


class PreconditionWarning(UserWarning):
    """The dimension is below the threshold that guarantees the closed-form
    rank bound; the value is computed anyway."""


def rank_threshold(m: int) -> int:
    """The n from which ``max_rank``'s closed form holds at order m."""
    return max(2 * m - 1, math.ceil(m * m / 4) - 1)


def _k_range(n: int, m: int, p: int) -> range:
    """k with p + 1 <= k <= n - m + p: from p + 1 on, every head coordinate
    has a degree-p monomial avoiding it, as head recovery needs."""
    return range(p + 1, n - m + p + 1)


def max_rank(n: int, m: int) -> tuple[int, int, int]:
    """Largest computable rank with its selecting (p*, k*).

    p* = floor((m-1)/2); k* is the largest k in ``_k_range(n, m, p*)``
    with C(k, p*) <= C(n-k-1, m-p*-1), found by integer search, and the
    bound is max(C(k*, p*), C(n-2-k*, m-1-p*)).  When no k of the range
    satisfies the inequality (n = m+1 for m >= 3), C(k, p*) exceeds the
    tail count from the first k on, so k* is that first k and the bound
    is min(C(k*, p*), C(n-k*-1, m-p*-1)).  The bound is 0, with k* = p*,
    when the range is empty.
    """
    if n < rank_threshold(m):
        warnings.warn(
            f"n={n} below threshold {rank_threshold(m)} for order {m}; "
            "the closed-form rank bound is not guaranteed",
            PreconditionWarning,
        )
    p_star = (m - 1) // 2
    ks = _k_range(n, m, p_star)
    if not ks:
        return 0, p_star, p_star
    fits = [k for k in ks if binomial(k, p_star) <= binomial(n - k - 1, m - p_star - 1)]
    if not fits:
        k = ks[0]
        return min(binomial(k, p_star), binomial(n - k - 1, m - p_star - 1)), p_star, k
    k_star = fits[-1]
    r_max = max(binomial(k_star, p_star), binomial(n - 2 - k_star, m - 1 - p_star))
    return r_max, p_star, k_star


def brute_force_max_rank(n: int, m: int) -> int:
    """Exhaustive maximum of min(C(k,p), C(n-k-1,m-p-1)) over the (p, k)
    grid that ``choose_params`` scans; the oracle for ``max_rank``."""
    best = 0
    for p in range(1, m - 1):
        for k in _k_range(n, m, p):
            best = max(best, min(binomial(k, p), binomial(n - k - 1, m - p - 1)))
    return best


@dataclass
class DecompositionParams:
    r: int
    p: int
    k: int
    seed: int = 0

    def validate(self, n: int, m: int):
        if not (1 <= self.p <= m - 2):
            raise ValueError(f"p={self.p} outside [1, {m - 2}]")
        if not (self.p <= self.k <= n - m + self.p):
            raise ValueError(f"k={self.k} outside [{self.p}, {n - m + self.p}]")
        if binomial(self.k, self.p) < self.r:
            raise RankTooLarge(self.r)
        if binomial(n - self.k - 1, m - self.p - 1) < self.r:
            raise RankTooLarge(self.r)


def choose_params(n: int, m: int, r: int, seed: int = 0) -> DecompositionParams:
    """Feasible (p, k) for a requested rank: p = p* with the smallest k of
    ``_k_range`` satisfying both binomial bounds; all other p are scanned
    before giving up, and RankTooLarge names the largest rank of the
    grid, ``brute_force_max_rank``."""
    if r < 1:
        raise ValueError("rank must be positive")
    p_star = (m - 1) // 2  # the p* of ``max_rank``
    candidates = [p_star] + [p for p in range(1, m - 1) if p != p_star]
    for p in candidates:
        for k in _k_range(n, m, p):
            if binomial(k, p) >= r and binomial(n - k - 1, m - p - 1) >= r:
                return DecompositionParams(r=r, p=p, k=k, seed=seed)
    raise RankTooLarge(r, brute_force_max_rank(n, m))


def max_rank_quiet(n: int, m: int) -> tuple[int, int, int]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreconditionWarning)
        return max_rank(n, m)


@dataclass
class Decomposition:
    components: np.ndarray  # (r, d) complex
    diagnostics: dict


def _tail_blocks(
    T: IncompleteSymmetricTensor, tails: np.ndarray, params: DecompositionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head monomials J1, tail monomials J2 (``subsets_lex`` arrays), and
    the tail design W[row, i] = product of tail entries of component i over
    J2[row]."""
    k, p = params.k, params.p
    J1 = subsets_lex(1, k, p)
    J2 = subsets_lex(k + 1, T.d - 1, T.m - p - 1)
    W = component_products(tails, J2 - (k + 1)).T
    return J1, J2, W


def solve_tail_products(
    T: IncompleteSymmetricTensor, tails: np.ndarray, params: DecompositionParams
) -> np.ndarray:
    """Coefficient vectors gamma_i over the head monomial set J1, from one
    least squares per J1 row against the tail design, which needs rank r."""
    J1, J2, W = _tail_blocks(T, tails, params)
    # heads lie in 1..k and tail labels in k+1..n, so no key repeats a label
    B = T.gather(block_keys(np.pad(J1, ((0, 0), (1, 0))), J2))
    # one shared design, all J1 rows as simultaneous right-hand sides
    report = lstsq(W, B.T)
    if report.rank < params.r:
        raise TailsDegenerate("tail design matrix is rank-deficient")
    return report.solution.T  # (|J1|, r)


def solve_heads(
    T: IncompleteSymmetricTensor,
    tails: np.ndarray,
    gammas: np.ndarray,
    params: DecompositionParams,
) -> tuple[np.ndarray, float]:
    """(r, k) head coordinates and the largest equilibrated condition
    number of their designs.

    For each head label j, the r unknowns (v_i)_j solve a joint least
    squares whose design is the row-wise Khatri-Rao product of
    Gamma = gammas restricted to the J1 rows avoiding j and the tail design
    W of ``tails``: row (a, b), column i is Gamma[a, i] W[b, i].  Its Gram is the
    Hadamard product (Gamma^H Gamma) * (W^H W), and its right-hand side
    and residual are products with Gamma and W, so the design is never
    formed (see ``_gram_lstsq``).  Every label has the same C(k-1, p) rows
    avoiding it, so the k systems are one stack: Gamma (k, C(k-1, p), r),
    the right-hand sides (k, C(k-1, p), |J2|) and one ``_gram_lstsq``.
    The right-hand sides are rows of one gather of the C(k, p+1) x |J2|
    distinct head keys: the head part {j} + beta of a key is a
    (p+1)-subset of the labels.  Raises HeadsDegenerate, naming the first
    such label, when no head monomial avoids a label (k <= p) or a
    label's design is numerically rank-deficient.
    """
    k, p = params.k, params.p
    if k <= p:  # every head monomial holds every label
        raise HeadsDegenerate(f"no head monomials avoid label 1 (k={k}, p={p})")
    J1, J2, W = _tail_blocks(T, tails, params)
    labels = np.arange(1, k + 1)
    # the J1 rows avoiding each label, label by label: (k, C(k-1, p))
    rows = np.nonzero((J1[None] != labels[:, None, None]).all(axis=2))[1].reshape(k, -1)
    head_keys = subsets_lex(1, k, p + 1)
    joined = np.concatenate(
        [J1[rows], np.broadcast_to(labels[:, None, None], rows.shape + (1,))], axis=2)
    B = T.gather(block_keys(head_keys, J2))[lex_positions(head_keys, joined)]
    Gamma = gammas[rows]
    W_conj = W.conj()
    x, conds = _gram_lstsq(
        (Gamma.conj().swapaxes(1, 2) @ Gamma) * (W_conj.T @ W),
        B,
        lambda rhs: (Gamma.conj() * (rhs @ W_conj)).sum(axis=1),
        lambda x: (Gamma * x[:, None, :]) @ W.T,
        "head",
        lambda j, _: HeadsDegenerate(f"head design rank-deficient at label {j + 1}"),
    )
    return x.T, max(1.0, float(conds.max()))


def _gram_lstsq(gram, b, adjoint, apply, name, degenerate):
    """Least-squares solutions x[s] of A_s x = b[s], as ``solve_heads`` and
    ``solve_scales`` pose them, for a stack of tall (n, r) designs A_s,
    each known through its Gram A_s^H A_s (``gram``, (S, r, r); only the
    upper triangles are read), x -> A x (``apply``, (S, r) to b's shape)
    and rhs -> A^H rhs (``adjoint``, b's shape to (S, r)); returns x (S,
    r) and the (S,) condition numbers of the column-equilibrated designs.

    Equilibrated by its diagonal, each Gram is solved by one Hermitian
    eigendecomposition (one ``eigh`` call for the stack), then once more
    on the residual: semi-normal equations with one correction step
    (Bjorck 1996, section 2.9) are as accurate as an SVD of A while the
    equilibrated A is well conditioned.  Raises ``degenerate(s, reason)``
    for the first system s with a zero column or a numerically
    rank-deficient A, and warns IllConditioned once, naming the ``name``
    system, when one is above the condition limit of ``numerics.lstsq``.
    """
    scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2).real)
    zero = (scale == 0).any(axis=1)
    # Columns can spread over many orders of magnitude; equilibrate so the
    # rank test and the solve see a well-scaled system.  A zero column is
    # reported below; a unit scale keeps its system finite until then.
    scale[zero] = 1.0
    unit = np.triu(gram, 1) / (scale[:, :, None] * scale[:, None, :])
    unit += unit.conj().swapaxes(1, 2)
    diag = np.arange(scale.shape[1])
    unit[:, diag, diag] = 1.0
    w, V = np.linalg.eigh(unit)
    # ``not >`` also catches NaN
    bad = zero | ~(w[:, 0] > scale.shape[1] * np.finfo(float).eps * w[:, -1])
    if bad.any():
        first = int(np.argmax(bad))
        raise degenerate(first, "has a zero column" if zero[first] else "rank-deficient")
    if (w[:, -1] / w[:, 0] > COND_LIMIT).any():
        warnings.warn(f"{name} least-squares system is ill-conditioned", IllConditioned)

    def solve(rhs):  # G^-1 A^H rhs for the unscaled Gram G
        c = (adjoint(rhs) / scale)[:, :, None]
        return (V @ ((V.conj().swapaxes(1, 2) @ c) / w[:, :, None]))[:, :, 0] / scale

    x = solve(b)
    x += solve(b - apply(x))
    return x, np.sqrt(w[:, -1] / w[:, 0])


def solve_scales(
    T: IncompleteSymmetricTensor, full: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Scales lambda minimizing ||sum_i lambda_i prod(full_i over key) - T||
    over T's stored keys (order m >= 2), the reconstruction there, and the
    condition number of the equilibrated design, whose columns' cosines
    behave like |<u_i, u_j>|^m: ``_gram_lstsq`` on ``_scale_gram``.  The
    (r, d) ``full`` are the unscaled components (1, v_i, w_i).  Design
    row k is P[leaf_k] * full[:, last_k], P the leaf products of the
    tensor's ``PrefixTree`` (``T.tree``), so A x is one GEMM per block of
    its cells read at the keys' cells and A^H b the conjugated rows of
    P^T conj(F) dotted with full, F the cells holding b.
    Raises ScalesDegenerate on a zero column or a numerically
    rank-deficient design; warns IllConditioned as ``numerics.lstsq`` does.
    """
    tree = T.tree
    leaf_products = tree.products(full)[-1]

    def adjoint(rhs):
        return (tree.gemm_adjoint(leaf_products, rhs.conj(), T.d) * full).sum(axis=1).conj()

    def apply(x):  # x (r,) or a stack of one (1, r)
        return tree.gemm(leaf_products, x.reshape(-1, 1) * full)

    x, conds = _gram_lstsq(
        _scale_gram(T, full)[None], T.values, adjoint, apply, "scale",
        lambda _, why: ScalesDegenerate(f"scale design {why}"),
    )
    return x[0], apply(x[0]), float(conds[0])


def _scale_gram(T: IncompleteSymmetricTensor, full: np.ndarray) -> np.ndarray:
    """(r, r) Gram A^H A of the scale design A[k, i] = prod(full_i over
    stored key k): e_m(conj(u_i) * u_j) over all distinct-index keys and
    the signed per-key Gram of the keys, as ``T.gram_terms`` says."""
    closed, keys, sign = T.gram_terms
    gram = 0.0
    if closed:
        *_, e = _elementary_sums(full.conj()[:, None, :] * full[None, :, :], T.m)
        gram = e[-1]
    design = component_products(full, keys)  # (r, n_keys)
    return gram + (design.conj() * sign) @ design.T


def decompose(
    T: IncompleteSymmetricTensor, params: DecompositionParams
) -> Decomposition:
    """Exact pipeline: generating matrix, eigen tails, then the three
    least-squares stages ``solve_tail_products``, ``solve_heads`` and
    ``solve_scales``; components are lambda^(1/m) (1, v_i, w_i) with the
    principal m-th root.

    ``solve_scales`` also returns the reconstruction behind
    diagnostics["decomp_err"]; diagnostics["gen_cond"] is the largest
    condition number of the n - k generating-matrix designs, warned as
    IllConditioned above ``GEN_COND_LIMIT``, diagnostics["heads_cond"]
    that of the k equilibrated head designs and diagnostics["scale_cond"]
    that of the equilibrated scale design."""
    n, m = T.d - 1, T.m
    params.validate(n, m)
    G = solve_generating_matrix(T, params.r, params.p, params.k)
    gen_cond = float(G.conds.max())
    if gen_cond > GEN_COND_LIMIT:
        warnings.warn(f"generating-matrix designs are ill-conditioned: gen_cond "
                      f"{gen_cond:.2e} above {GEN_COND_LIMIT:.0e}", IllConditioned)
    Ns = companion_matrices(G)
    tails, _, gap = extract_tails(Ns, params.seed)
    gammas = solve_tail_products(T, tails, params)
    heads, heads_cond = solve_heads(T, tails, gammas, params)
    full = np.concatenate([np.ones((len(heads), 1), dtype=complex), heads, tails], axis=1)
    lambdas, rec, scale_cond = solve_scales(T, full)
    components = np.power(lambdas.astype(complex), 1.0 / m)[:, None] * full
    diagnostics = {
        "decomp_err": _relative_err(T, rec - T.values),
        "eigen_gap": gap,
        "gen_cond": gen_cond,
        "gen_residual_max": float(np.max(G.residuals)) if G.residuals.size else 0.0,
        "gen_rank_min": int(G.ranks.min()),
        "heads_cond": heads_cond,
        "scale_cond": scale_cond,
    }
    return Decomposition(components=components, diagnostics=diagnostics)


def decomp_err(T: IncompleteSymmetricTensor, components: np.ndarray) -> float:
    """Relative reconstruction error of (r, d) components over the stored
    keys (order m >= 2), from ``T.tree.reconstruction`` without building a
    tensor."""
    return _relative_err(T, T.tree.reconstruction(components) - T.values)


def _relative_err(T: IncompleteSymmetricTensor, diff: np.ndarray) -> float:
    """||diff|| on T's keys relative to ||T||, whose m! weights cancel; the
    weighted absolute norm when T is zero."""
    denom = float(np.linalg.norm(T.values))
    if denom == 0:
        return weighted_norm(diff, T.m)
    return float(np.linalg.norm(diff)) / denom


def _elementary_sums(z: np.ndarray, m: int):
    """For c = 0..d, the elementary symmetric polynomials e_0..e_m of z[..., :c]
    in one array of z's dtype updated in place by e_k += z_c e_{k-1}, with
    no subtraction."""
    e = np.zeros((m + 1,) + z.shape[:-1], dtype=z.dtype)
    e[0] = 1.0
    yield e
    for c in range(z.shape[-1]):
        e[1:] += z[..., c] * e[:-1]
        yield e


def omega_gram(Q: np.ndarray, m: int) -> np.ndarray:
    """(r, d, r, d) Gram G = Jc^H Jc of the Jacobian Jc of
    key -> sum_i prod_t Q[i, key_t] over all of ``omega_keys(d, m)``,
    complex or real as Q is.

    With z = conj(q_i) * q_j and e_k its elementary symmetric
    polynomials, G[i, a, j, b] is conj(q_ib) q_ja e_{m-2}(z without a, b)
    for a != b and e_{m-1}(z without a) for a == b.  These are products of
    the truncated polynomials prod_c (1 + z_c t) over the coordinates
    before, between and after the left-out ones, vectorised over the
    (i, j) pairs.  Nothing is subtracted or divided: deflating e_k(z)
    instead cancels when a vector's coordinates span many orders of
    magnitude.
    """
    r, d = Q.shape
    z = Q.conj()[:, None, :] * Q[None, :, :]  # (r, r, d)
    # pre[a][k] = e_k(z_c : c < a) and suf[a][k] = e_k(z_c : c > a)
    pre = np.empty((d, m, r, r), dtype=z.dtype)
    suf = np.empty((d, m, r, r), dtype=z.dtype)
    fwd, bwd = _elementary_sums(z, m - 1), _elementary_sums(z[:, :, ::-1], m - 1)
    for c, e_pre, e_suf in zip(range(d), fwd, bwd):
        pre[c], suf[d - 1 - c] = e_pre, e_suf
    # off[a, b] = e_{m-2}(z without a, b) for a < b, from
    # left[a] = e(z_c : c < b, c != a) grown one coordinate b at a time
    off = np.zeros((d, d, r, r), dtype=z.dtype)
    left = np.empty((d, m - 1, r, r), dtype=z.dtype)
    for b in range(d):
        grown = left[:b]
        off[:b, b] = sum(grown[:, p] * suf[b, m - 2 - p] for p in range(m - 1))
        off[b, :b] = off[:b, b]
        grown[:, 1:] += z[:, :, b] * grown[:, :-1]
        left[b] = pre[b, : m - 1]
    # G[i, a, j, b] = off[a, b, i, j] conj(q_ib) q_ja, formed in place
    off *= Q.conj().T[None, :, :, None]
    off *= Q.T[:, None, None, :]
    diag = np.arange(d)
    off[diag, diag] = sum(pre[:, p] * suf[:, m - 1 - p] for p in range(m))
    return off.transpose(2, 0, 3, 1)


def _residual_builder(T: IncompleteSymmetricTensor, r: int):
    """Complex residual over the stored keys (order m >= 2) as a function
    of the flattened components q = Q.ravel(), and its Gauss-Newton normal
    equations without the Jacobian.

    The residual is the reconstruction on ``T.tree`` minus the values; it
    keeps the tree's products at its last q.  With Jc the complex (n_keys,
    r*d) Jacobian, ``normal_equations(q, f)`` returns the damped step's
    G = Jc^H Jc, as a function of no arguments that ``nlls_refine`` calls
    only for a fresh factorisation, and g = Jc^H f from
    ``T.tree.adjoint_at`` on those products when q is the residual's last
    point, as it is in ``nlls_refine``: one tree pass per point.  G is
    closed-form over all distinct-index keys (``omega_gram``) plus signed
    per-key Grams, or the stored keys' own, as ``T.gram_terms`` says.
    """
    target, tree, m, rd = T.values, T.tree, T.m, r * T.d
    closed, gram_keys, gram_sign = T.gram_terms
    last = None, None  # the residual's last q and the products there

    def residual(q):
        nonlocal last
        Q = q.reshape(r, -1)
        prods = tree.products(Q)
        last = q.copy(), prods
        return tree.gemm(prods[-1], Q) - target

    def gram(Q):
        Jk = product_jacobian(Q, gram_keys).reshape(-1, rd)
        G = omega_gram(Q, m).reshape(rd, rd) if closed else np.zeros((rd, rd), Q.dtype)
        if len(gram_keys):
            signed = Jk.conj()
            signed *= gram_sign[:, None]
            G += signed.T @ Jk
        return G

    def normal_equations(q, f):
        Q = q.reshape(r, -1)
        at, prods = last
        if not np.array_equal(at, q):
            prods = tree.products(Q)
        return (lambda: gram(Q)), tree.adjoint_at(prods, f).ravel()

    return residual, normal_equations


def approximate(
    T_noisy: IncompleteSymmetricTensor,
    params: DecompositionParams,
    truth: IncompleteSymmetricTensor | None = None,
) -> Decomposition:
    """Noisy pipeline: run the exact stages on the noisy subtensor, then
    refine all component entries by damped Gauss-Newton on the complex
    residual over the stored keys.  The diagnostics take from the
    ``Refined`` point lm_iterations, lm_factorizations and
    lm_residual_calls, its counts, lm_stop, why it ended, and decomp_err,
    its residual's relative norm.

    When ``truth`` is supplied the diagnostics carry abs_err (the
    ``omega_norm`` distance of the reconstruction to the exact tensor) and
    rel_err (the residual's norm relative to the noise's), both from the
    point's residual: the reconstruction less the exact values is the
    residual plus the noise, so no reconstruction is formed again.
    """
    base = decompose(T_noisy, params)
    residual, normal_equations = _residual_builder(T_noisy, params.r)
    q_star = nlls_refine(residual, base.components.ravel(), normal_equations=normal_equations)
    components = np.asarray(q_star).reshape(base.components.shape)
    diagnostics = dict(base.diagnostics)
    diagnostics["decomp_err"] = _relative_err(T_noisy, q_star.residual)
    diagnostics["pre_refine_decomp_err"] = base.diagnostics["decomp_err"]
    diagnostics.update(lm_iterations=q_star.iterations,
                       lm_factorizations=q_star.factorizations,
                       lm_residual_calls=q_star.residual_calls, lm_stop=q_star.stop)
    if truth is not None:
        noise = T_noisy.values - truth.gather(T_noisy.key_array)
        noise_norm = np.linalg.norm(noise)
        diagnostics["abs_err"] = weighted_norm(q_star.residual + noise, T_noisy.m)
        diagnostics["rel_err"] = (
            float(np.linalg.norm(q_star.residual) / noise_norm) if noise_norm > 0 else 0.0
        )
    return Decomposition(components=components, diagnostics=diagnostics)


def component_error(
    truth: np.ndarray, recovered: np.ndarray, m: int
) -> float:
    """Max relative vector error after optimal matching, minimizing over
    component permutations and m-th roots of unity per component."""
    import scipy.optimize

    truth = np.atleast_2d(truth)
    phases = np.exp(2j * np.pi * np.arange(m) / m)[:, None, None, None]
    diff = truth[:, None, :] - phases * np.atleast_2d(recovered)  # (m, r, r, d)
    norms = np.linalg.norm(truth, axis=1, keepdims=True)
    cost = np.linalg.norm(diff, axis=-1).min(axis=0) / np.where(norms > 0, norms, 1.0)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def to_json(dec: Decomposition, d: int, m: int) -> str:
    comps = [{"re": q.real.tolist(), "im": q.imag.tolist()} for q in dec.components]
    # numpy scalars as Python ones; counts stay JSON integers
    diag = {
        k: (v.item() if isinstance(v, np.generic) else v)
        for k, v in dec.diagnostics.items()
    }
    return json.dumps(
        {
            "d": d,
            "m": m,
            "r": int(dec.components.shape[0]),
            "components": comps,
            "diagnostics": diag,
        },
        indent=1,
    )

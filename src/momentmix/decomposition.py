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
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
from scipy.linalg.blas import zherk

from .combinatorics import binomial, subsets_lex
from .errors import (
    HeadsDegenerate,
    IllConditioned,
    RankTooLarge,
    ScalesDegenerate,
    TailsDegenerate,
)
from .generating import companion_matrices, extract_tails, solve_generating_matrix
from .numerics import _COND_LIMIT, lstsq, nlls_refine
from .tensor_store import (
    ComponentList,
    IncompleteSymmetricTensor,
    block_matrix,
    component_products,
    from_components,
    omega_keys,
    omega_norm,
    product_jacobian,
    slot_partials,
)


class PreconditionWarning(UserWarning):
    """The dimension is below the threshold that guarantees the closed-form
    rank bound; the value is computed anyway."""


def _threshold(m: int) -> int:
    return max(2 * m - 1, math.ceil(m * m / 4) - 1)


def max_rank(n: int, m: int) -> tuple[int, int, int]:
    """Largest computable rank with its selecting (p*, k*).

    p* = floor((m-1)/2); k* is the largest k with
    C(k, p*) <= C(n-k-1, m-p*-1), found by integer search; the bound is
    max(C(k*, p*), C(n-2-k*, m-1-p*)).
    """
    if n < _threshold(m):
        warnings.warn(
            f"n={n} below threshold {_threshold(m)} for order {m}; "
            "the closed-form rank bound is not guaranteed",
            PreconditionWarning,
        )
    p_star = (m - 1) // 2
    k_star = None
    for k in range(p_star, n - m + p_star + 1):
        if binomial(k, p_star) <= binomial(n - k - 1, m - p_star - 1):
            k_star = k
    if k_star is None:
        k_star = p_star
    r_max = max(binomial(k_star, p_star), binomial(n - 2 - k_star, m - 1 - p_star))
    return r_max, p_star, k_star


def brute_force_max_rank(n: int, m: int) -> int:
    """Exhaustive maximum of min(C(k,p), C(n-k-1,m-p-1)) over the full
    (p, k) grid; the oracle for ``max_rank``."""
    best = 0
    for p in range(1, m - 1):
        for k in range(p, n - m + p + 1):
            best = max(best, min(binomial(k, p), binomial(n - k - 1, m - p - 1)))
    return best


@dataclass
class DecompositionParams:
    r: int
    p: int
    k: int
    seed: int = 0
    refine_opts: dict = field(default_factory=dict)

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
    """Feasible (p, k) for a requested rank: p = p* with the smallest k
    satisfying both binomial bounds; all other p are scanned before
    giving up.  k starts at p + 1 so that every head coordinate has at
    least one degree-p monomial avoiding it, which the head-recovery
    least squares needs."""
    if r < 1:
        raise ValueError("rank must be positive")
    _, p_star, _ = max_rank_quiet(n, m)
    candidates = [p_star] + [p for p in range(1, m - 1) if p != p_star]
    for p in candidates:
        for k in range(p + 1, n - m + p + 1):
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
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], np.ndarray]:
    """Head monomials J1, tail monomials J2, and the tail design
    W[row, i] = product of tail entries of component i over J2[row]."""
    k, p = params.k, params.p
    J1 = subsets_lex(1, k, p)
    J2 = subsets_lex(k + 1, T.d - 1, T.m - p - 1)
    W = component_products(tails, np.array(J2) - (k + 1)).T
    return J1, J2, W


def solve_tail_products(
    T: IncompleteSymmetricTensor, tails: np.ndarray, params: DecompositionParams
) -> np.ndarray:
    """Coefficient vectors gamma_i over the head monomial set J1, from one
    least squares per J1 row against the tail design."""
    J1, J2, W = _tail_blocks(T, tails, params)
    if np.linalg.matrix_rank(W) < params.r:
        raise TailsDegenerate("tail design matrix is rank-deficient")
    B = block_matrix(T, J1, J2, pad_with_zero_label=True)
    # one shared design, all J1 rows as simultaneous right-hand sides
    report = lstsq(W, B.T)
    return report.solution.T  # (|J1|, r)


def solve_heads(
    T: IncompleteSymmetricTensor,
    tails: np.ndarray,
    gammas: np.ndarray,
    params: DecompositionParams,
) -> np.ndarray:
    """Head coordinates: for each head label j, a joint least squares in
    the r unknowns (v_i)_j with design columns gamma_i|_{J1 without j}
    outer the tail design."""
    k, p, r = params.k, params.p, params.r
    J1, J2, W = _tail_blocks(T, tails, params)
    heads = np.empty((r, k), dtype=complex)
    for j in range(1, k + 1):
        row_idx = [i for i, beta in enumerate(J1) if j not in beta]
        if not row_idx:
            raise HeadsDegenerate(
                f"no head monomials avoid label {j} (k={k}, p={p})"
            )
        B = block_matrix(
            T, [(j,) + J1[i] for i in row_idx], J2, pad_with_zero_label=False
        )
        design = (gammas[row_idx][:, None, :] * W[None, :, :]).reshape(-1, r)
        report = lstsq(design, B.ravel())
        if report.rank < r:
            raise HeadsDegenerate(f"head design rank-deficient at label {j}")
        heads[:, j - 1] = report.solution
    return heads


def solve_scales(
    T: IncompleteSymmetricTensor,
    heads: np.ndarray,
    tails: np.ndarray,
    params: DecompositionParams,
) -> np.ndarray:
    """Scales lambda_i from a least squares over all stored keys, each
    sorted key weighted once; solved on the r x r normal equations of the
    equilibrated design with one correction step (see ``_scale_fit``)."""
    r = params.r
    full = np.concatenate(
        [np.ones((r, 1), dtype=complex), heads, tails], axis=1
    )
    return _scale_fit(T, full)[0]


def _scale_fit(
    T: IncompleteSymmetricTensor, full: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Scales lambda minimizing ||sum_i lambda_i prod(full_i over key) - T||
    over T's stored keys, the reconstruction at those keys, and the
    condition number of the equilibrated design.

    The design's columns are u_i^{(x)m} on the keys.  Equilibrated, their
    cosines behave like |<u_i, u_j>|^m, so the design is close to
    orthogonal and its r x r Gram is safe to solve: semi-normal equations
    with one correction step (Bjorck 1996, section 2.9) are then as
    accurate as an SVD of the tall design, at a fraction of its cost.
    Raises ScalesDegenerate on a zero column or a numerically
    rank-deficient design and warns IllConditioned above the condition
    limit of ``numerics.lstsq``.
    """
    design = component_products(full, T.key_array)  # (r, n_keys)
    b = T.values
    # design.T is Fortran-ordered, so zherk reads it without a copy and
    # fills the upper triangle of its Gram (design.T)^H design.T.
    upper = zherk(1.0, design.T, trans=2)
    scale = np.sqrt(np.diag(upper).real)
    if np.any(scale == 0):
        raise ScalesDegenerate("scale design has a zero column")
    # Columns scale like u_i^m and spread over many orders of magnitude
    # when a component's leading coordinate is small; equilibrate so the
    # rank test and the solve see a well-scaled system.
    unit = np.triu(upper, 1) / np.outer(scale, scale)
    unit += unit.conj().T
    np.fill_diagonal(unit, 1.0)
    w, V = np.linalg.eigh(unit)
    r = full.shape[0]
    if not w[0] > r * np.finfo(float).eps * w[-1]:  # also catches NaN
        raise ScalesDegenerate("scale design rank-deficient")
    if w[-1] / w[0] > _COND_LIMIT:
        warnings.warn("scale least-squares system is ill-conditioned", IllConditioned)

    def solve(rhs):  # G^-1 design^H rhs for the unscaled Gram G
        c = (design @ rhs.conj()).conj() / scale
        return (V @ ((V.conj().T @ c) / w)) / scale

    lambdas = solve(b)
    lambdas += solve(b - lambdas @ design)
    return lambdas, lambdas @ design, float(np.sqrt(w[-1] / w[0]))


def decompose(
    T: IncompleteSymmetricTensor, params: DecompositionParams
) -> Decomposition:
    """Exact pipeline: generating matrix, eigen tails, then the three
    least-squares stages; components are lambda^(1/m) (1, v_i, w_i) with
    the principal m-th root.

    The scale stage's design products also give the reconstruction behind
    diagnostics["decomp_err"]; diagnostics["scale_cond"] is the condition
    number of the equilibrated scale design."""
    n, m = T.d - 1, T.m
    params.validate(n, m)
    G = solve_generating_matrix(T, params.r, params.p, params.k)
    Ns = companion_matrices(G)
    tails, _, gap = extract_tails(Ns, params.seed)
    gammas = solve_tail_products(T, tails, params)
    heads = solve_heads(T, tails, gammas, params)
    full = np.concatenate(
        [np.ones((params.r, 1), dtype=complex), heads, tails], axis=1
    )
    lambdas, rec, scale_cond = _scale_fit(T, full)
    roots = np.power(lambdas.astype(complex), 1.0 / m)
    components = roots[:, None] * full
    err = _relative_err(T, rec - T.values)
    diagnostics = {
        "decomp_err": err,
        "eigen_gap": gap,
        "gen_residual_max": float(np.max(G.residuals)) if G.residuals.size else 0.0,
        "gen_rank_min": int(G.ranks.min()),
        "scale_cond": scale_cond,
    }
    return Decomposition(components=components, diagnostics=diagnostics)


def decomp_err(T: IncompleteSymmetricTensor, components: np.ndarray) -> float:
    """Relative reconstruction error over the stored keys."""
    rec = from_components(ComponentList(components), T.m, T.key_array)
    return _relative_err(T, rec.values - T.values)


def _relative_err(T: IncompleteSymmetricTensor, diff_values: np.ndarray) -> float:
    """Norm of a difference tensor on T's keys relative to T's norm; the
    absolute norm when T is zero."""
    keys = T.key_array
    err = omega_norm(T.with_values(diff_values), keys)
    denom = omega_norm(T, keys)
    if denom == 0:
        return err
    return err / denom


def _omega_gram(Q: np.ndarray, m: int) -> np.ndarray:
    """(r, d, r, d) Gram G = Jc^H Jc of the complex Jacobian Jc of
    key -> sum_i prod_t Q[i, key_t] over all of ``omega_keys(d, m)``.

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
    pre = np.empty((d, m, r, r), dtype=complex)
    suf = np.empty((d, m, r, r), dtype=complex)
    fwd = np.zeros((m, r, r), dtype=complex)
    fwd[0] = 1.0
    bwd = fwd.copy()
    for c in range(d):
        pre[c] = fwd
        fwd[1:] += z[:, :, c] * fwd[:-1]
        suf[d - 1 - c] = bwd
        bwd[1:] += z[:, :, d - 1 - c] * bwd[:-1]
    # off[a, b] = e_{m-2}(z without a, b) for a < b, from
    # left[a] = e(z_c : c < b, c != a) grown one coordinate b at a time
    off = np.zeros((d, d, r, r), dtype=complex)
    left = np.empty((d, m - 1, r, r), dtype=complex)
    for b in range(d):
        grown = left[:b]
        off[:b, b] = sum(grown[:, p] * suf[b, m - 2 - p] for p in range(m - 1))
        grown[:, 1:] += z[:, :, b] * grown[:, :-1]
        left[b] = pre[b, : m - 1]
    off += off.transpose(1, 0, 2, 3)
    G = off.transpose(2, 0, 3, 1) * Q.conj()[:, None, None, :] * Q.T[None, :, :, None]
    diag = np.arange(d)
    G[:, diag, :, diag] = sum(pre[:, p] * suf[:, m - 1 - p] for p in range(m))
    return G


def _residual_builder(T: IncompleteSymmetricTensor, r: int):
    """Real residual over the stored keys for the flattened
    [Re(Q); Im(Q)] parameterization, and its Gauss-Newton normal
    equations without the Jacobian.

    With Jc the complex Jacobian and G = Jc^H Jc, the real J.T @ J is
    [[Re G, -Im G], [Im G, Re G]] and J.T @ f is [Re g; Im g] with
    g = Jc^H f.  G comes in closed form over all distinct-index keys
    (``_omega_gram``), plus the per-key Gram of any stored key with a
    repeated index and minus that of any distinct-index key not stored.
    g scatters the conjugated slot partials times f into the r*d slots.
    """
    key_arr = T.key_array
    target = T.values
    d, m = T.d, T.m
    n_keys = key_arr.shape[0]
    rd = r * d
    distinct = np.array(omega_keys(d, m), dtype=np.int64).reshape(-1, m)
    radix = d ** np.arange(m - 1, -1, -1, dtype=np.int64)
    absent = distinct[~np.isin(distinct @ radix, key_arr @ radix)]
    repeated = key_arr[(key_arr[:, 1:] == key_arr[:, :-1]).any(axis=1)]
    correction_keys = np.concatenate([repeated, absent])
    correction_sign = np.repeat([1.0, -1.0], [len(repeated), len(absent)])
    slots = (key_arr[:, :, None] + d * np.arange(r)).ravel()  # slot of (k, t, i)

    def split(x):
        return (x[:rd] + 1j * x[rd:]).reshape(r, d)

    def residual(x):
        Q = split(x)
        vals = component_products(Q, key_arr).sum(axis=0) - target
        return np.concatenate([vals.real, vals.imag])

    def normal_equations(x, f):
        Q = split(x)
        Jk = product_jacobian(Q, correction_keys).reshape(-1, rd)
        G = _omega_gram(Q, m).reshape(rd, rd)
        G += Jk.conj().T @ (correction_sign[:, None] * Jk)
        # conj(g) sums partial * conj(f) over the slots holding each (i, a)
        weighted = slot_partials(Q, key_arr).transpose(1, 2, 0)  # (n, m, r)
        weighted *= (f[:n_keys] - 1j * f[n_keys:])[:, None, None]
        g_re = np.bincount(slots, weighted.real.ravel(), minlength=rd)
        g_im = -np.bincount(slots, weighted.imag.ravel(), minlength=rd)
        JtJ = np.block([[G.real, -G.imag], [G.imag, G.real]])
        return JtJ, np.concatenate([g_re, g_im])

    def pack(Q):
        return np.concatenate([Q.real.ravel(), Q.imag.ravel()])

    return residual, normal_equations, split, pack


def approximate(
    T_noisy: IncompleteSymmetricTensor,
    params: DecompositionParams,
    truth: IncompleteSymmetricTensor | None = None,
) -> Decomposition:
    """Noisy pipeline: run the exact stages on the noisy subtensor, then
    refine all component entries by damped Gauss-Newton on the residual
    over the stored keys.  diagnostics["lm_iterations"] counts the
    normal-equation evaluations of the refinement.

    When ``truth`` is supplied the diagnostics carry abs_err (distance of
    the reconstruction to the exact tensor) and rel_err (distance to the
    noisy tensor relative to the noise norm).
    """
    base = decompose(T_noisy, params)
    residual, normal_equations, split, pack = _residual_builder(T_noisy, params.r)
    lm_iterations = 0

    def counted_normal_equations(x, f):
        nonlocal lm_iterations
        lm_iterations += 1
        return normal_equations(x, f)

    opts = {"max_iters": 200, "grad_tol": 1e-10}
    opts.update(params.refine_opts)
    x0 = pack(base.components)
    x_star = nlls_refine(
        residual, x0, normal_equations=counted_normal_equations, **opts
    )
    components = split(x_star)
    keys = T_noisy.key_array
    rec = from_components(ComponentList(components), T_noisy.m, keys)
    diff_hat = T_noisy.with_values(rec.values - T_noisy.values)
    diagnostics = dict(base.diagnostics)
    diagnostics["decomp_err"] = _relative_err(T_noisy, diff_hat.values)
    diagnostics["pre_refine_decomp_err"] = base.diagnostics["decomp_err"]
    diagnostics["lm_iterations"] = lm_iterations
    if truth is not None:
        truth_values = truth.gather(keys)
        diff_true = T_noisy.with_values(rec.values - truth_values)
        noise = T_noisy.with_values(T_noisy.values - truth_values)
        noise_norm = omega_norm(noise, keys)
        diagnostics["abs_err"] = omega_norm(diff_true, keys)
        diagnostics["rel_err"] = (
            omega_norm(diff_hat, keys) / noise_norm if noise_norm > 0 else 0.0
        )
    return Decomposition(components=components, diagnostics=diagnostics)


def component_error(
    truth: np.ndarray, recovered: np.ndarray, m: int
) -> float:
    """Max relative vector error after optimal matching, minimizing over
    component permutations and m-th roots of unity per component."""
    truth = np.atleast_2d(truth)
    recovered = np.atleast_2d(recovered)
    r = truth.shape[0]
    phases = np.exp(2j * np.pi * np.arange(m) / m)
    cost = np.empty((r, r))
    for i in range(r):
        norm_i = np.linalg.norm(truth[i])
        for j in range(r):
            errs = [
                np.linalg.norm(truth[i] - eta * recovered[j]) for eta in phases
            ]
            cost[i, j] = min(errs) / (norm_i if norm_i > 0 else 1.0)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def to_json(dec: Decomposition, d: int, m: int) -> str:
    comps = [{"re": q.real.tolist(), "im": q.imag.tolist()} for q in dec.components]
    diag = {
        k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
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


def from_json(text: str) -> Decomposition:
    doc = json.loads(text)
    comps = np.array(
        [np.asarray(c["re"]) + 1j * np.asarray(c["im"]) for c in doc["components"]]
    )
    return Decomposition(components=comps, diagnostics=doc.get("diagnostics", {}))

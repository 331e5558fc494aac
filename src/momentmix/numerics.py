"""Numerical kernels: seeded RNG, complex least squares, NNLS, complex
eigendecomposition, damped Gauss-Newton refinement, and simplex-constrained
nonlinear least squares.

All decomposition-path linear algebra is complex; the mixture-model weight
and covariance solves are real.  The Gauss-Newton loop takes the normal
equations J.T @ J and J.T @ f from its caller, so a refinement with a
closed form for them never builds its Jacobian; finite differences remain
the default for a bare residual.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import EigenFailure, IllConditioned, MaxIterations

_COND_LIMIT = 1e12


def rng_from(seed: int, *stream) -> np.random.Generator:
    """PCG64 generator derived from (seed, stream-id...).

    Streams with different ids never overlap, so parallel workers can
    derive disjoint generators from one base seed.
    """
    ids = [
        zlib.crc32(s.encode()) if isinstance(s, str) else int(s) for s in stream
    ]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)] + ids)))


def gaussian_vector(seed: int, length: int, *stream) -> np.ndarray:
    """Standard normal i.i.d. vector, bit-reproducible per (seed, stream)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return rng_from(seed, *stream).standard_normal(length)


@dataclass
class LstsqReport:
    solution: np.ndarray
    residual_norm: float | np.ndarray  # per column for a 2-D right-hand side
    rank: int
    ill_conditioned: bool = False


def lstsq(A: np.ndarray, b: np.ndarray) -> LstsqReport:
    """Minimum-norm least-squares solution of A x = b via SVD.

    Emits an ``IllConditioned`` warning (solution still returned) when the
    condition estimate of A exceeds 1e12.
    """
    A = np.atleast_2d(np.asarray(A))
    b = np.asarray(b)
    if A.shape[1] < 1:
        raise ValueError("A must have at least one column")
    x, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    ill = False
    if sv.size and sv[-1] > 0 and sv[0] / sv[-1] > _COND_LIMIT:
        ill = True
        warnings.warn("least-squares system is ill-conditioned", IllConditioned)
    resid = np.linalg.norm(A @ x - b, axis=0 if b.ndim == 2 else None)
    return LstsqReport(solution=x, residual_norm=resid, rank=int(rank), ill_conditioned=ill)


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares min ||Ax - b||^2 s.t. x >= 0 via the
    Lawson-Hanson active-set method."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    try:
        x, _ = scipy.optimize.nnls(A, b)
    except RuntimeError as exc:  # active-set iteration cap
        raise MaxIterations(str(exc)) from exc
    return x


@dataclass
class EigenPairs:
    values: np.ndarray  # (r,) complex
    vectors: np.ndarray  # (r, r) complex, columns unit norm


def eig(M: np.ndarray) -> EigenPairs:
    """All eigenpairs of a square complex matrix; unit-norm eigenvectors,
    ordered by (real, imag) of the eigenvalue."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    return EigenPairs(values=vals, vectors=vecs)


def _fd_jacobian(residual: Callable, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    J = np.empty((f0.size, x.size))
    h_base = np.sqrt(np.finfo(float).eps)
    for i in range(x.size):
        h = h_base * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        J[:, i] = (residual(xp) - f0) / h
    return J


def nlls_refine(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    max_iters: int = 200,
    grad_tol: float = 1e-10,
    normal_equations: Callable[[np.ndarray, np.ndarray], tuple] | None = None,
) -> np.ndarray:
    """Levenberg-Marquardt style damped Gauss-Newton minimization of
    ||residual(x)||^2 with a monotone safeguard: the returned point never
    has a larger objective than x0.

    ``normal_equations(x, f)`` returns the Gauss-Newton matrix J.T @ J and
    the gradient J.T @ f at x, where f = residual(x); a caller with a
    closed form for them never forms J.  Without it, J is taken by forward
    finite differences, one residual call per coordinate.
    """
    if normal_equations is None:

        def normal_equations(x, f):
            J = _fd_jacobian(residual, x, f)
            return J.T @ J, J.T @ f

    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(residual(x), dtype=float)
    cost = float(f @ f)
    best_x, best_cost = x.copy(), cost
    lam = 1e-3
    for _ in range(max_iters):
        JtJ, grad = normal_equations(x, f)
        if np.max(np.abs(grad)) <= grad_tol:
            break
        diag = np.eye(x.size)
        accepted = False
        for _ in range(30):
            try:
                step = np.linalg.solve(JtJ + lam * diag, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            f_new = np.asarray(residual(x_new), dtype=float)
            cost_new = float(f_new @ f_new)
            if cost_new < cost:
                x, f, cost = x_new, f_new, cost_new
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            break
        if cost < best_cost:
            best_x, best_cost = x.copy(), cost
        if np.linalg.norm(step) <= 1e-15 * (1.0 + np.linalg.norm(x)):
            break
    return best_x


def simplex_nlls(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
    omega0: np.ndarray,
    mu0: np.ndarray,
    max_iters: int = 200,
    grad_tol: float = 1e-10,
    jacobian: Callable[[np.ndarray, np.ndarray], tuple] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||residual(omega, mu)||^2 with omega on the probability
    simplex, via the squared-variable reparameterization
    omega_i = t_i^2 / sum_j t_j^2 fed to ``nlls_refine``.

    ``jacobian(omega, mu)`` returns the residual's derivatives
    (J_omega, J_mu), of shapes (n, r) and (n, r * d) with mu flattened
    row-major.  They are chained through the simplex map,
    d omega_i / d t_k = 2 t_k (delta_ik - omega_i) / sum_j t_j^2, and the
    small dense J.T @ J and J.T @ f go to ``nlls_refine``.  Without it,
    ``nlls_refine`` differences the residual.

    The returned omega is exactly renormalized onto the simplex.
    """
    omega0 = np.asarray(omega0, dtype=float)
    mu0 = np.atleast_2d(np.asarray(mu0, dtype=float))
    r, dim = mu0.shape
    if omega0.shape != (r,):
        raise ValueError("omega0 length must match mu0 rows")
    if np.any(omega0 < 0):
        raise ValueError("omega0 must be nonnegative")

    def unpack(x):
        t = x[:r]
        w = t * t
        s = w.sum()
        if s <= 0:
            w = np.full(r, 1.0 / r)
        else:
            w = w / s
        return w, x[r:].reshape(r, dim)

    def wrapped(x):
        w, mu = unpack(x)
        return residual(w, mu)

    normal_equations = None
    if jacobian is not None:

        def normal_equations(x, f):
            t = x[:r]
            s = t @ t
            w, mu = unpack(x)
            J_w, J_mu = jacobian(w, mu)
            if s > 0:
                J_t = (J_w - (J_w @ w)[:, None]) * (2.0 * t / s)
            else:  # the uniform fallback of ``unpack`` does not move with t
                J_t = np.zeros_like(J_w)
            J = np.hstack([J_t, J_mu])
            return J.T @ J, J.T @ f

    x0 = np.concatenate([np.sqrt(omega0), mu0.ravel()])
    x_star = nlls_refine(
        wrapped, x0, max_iters=max_iters, grad_tol=grad_tol,
        normal_equations=normal_equations,
    )
    omega, mu = unpack(x_star)
    omega = omega / omega.sum()
    return omega, mu

"""Numerical kernels: seeded RNG, complex least squares, NNLS, complex
eigendecomposition, damped Gauss-Newton refinement, and simplex-constrained
nonlinear least squares.

All decomposition-path linear algebra is complex; the mixture-model weight
and covariance solves are real.  The Gauss-Newton loop solves
(J^H J + lambda I) delta = -J^H f in the dtype of its start, real or
complex, and takes J^H J and J^H f from its caller, so a refinement with a
closed form for them never builds its Jacobian (``simplex_nlls`` chains
its caller's through the simplex map); finite differences remain the
default for a bare residual.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# scipy is imported inside the functions that call it, here and across the
# package, so that ``import momentmix`` and the exact pipeline never load it.
from .errors import EigenFailure, IllConditioned, MaxIterations

COND_LIMIT = 1e12
# ``nlls_refine`` stops once every gradient entry is at most this in
# magnitude (real and imaginary parts alike).
_GRAD_TOL = 1e-10
# ``nlls_refine`` stops when a rejected step's objective is within this
# fraction of the current one.  The objective's rounding error is eps times
# the ratio of the residual's terms to the residual itself, not eps alone:
# noisy order-4 fits at 4e-6 relative error show objectives that differ
# by up to 1.3e-12 relative from one rounding to the next, about 6e3 eps.
_FLOOR_RTOL = 1e4 * np.finfo(float).eps


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
    rank: int | np.ndarray  # per system of a stack, as are cond and ill_conditioned
    cond: float | np.ndarray  # largest over smallest singular value, inf if that is 0
    ill_conditioned: bool | np.ndarray = False


def lstsq(A: np.ndarray, b: np.ndarray) -> LstsqReport:
    """Minimum-norm least-squares solution of A x = b via one SVD, for an
    (M, N) A or a stack (..., M, N), b (..., M) or (..., M, K).

    Singular values at most eps * max(M, N) of their system's largest
    count as zero, as in numpy's ``lstsq``.  Warns ``IllConditioned`` once
    (solutions still returned) when a system of full column rank has a
    condition estimate above 1e12; a rank-deficient one is reported by
    ``rank`` alone, which callers check.  ``cond`` is each system's
    largest singular value over its smallest.
    """
    A = np.atleast_2d(np.asarray(A))
    b = np.asarray(b)
    M, N = A.shape[-2:]
    if N < 1:
        raise ValueError("A must have at least one column")
    B = b[..., None] if b.ndim < A.ndim else b
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    kept = s > np.finfo(float).eps * max(M, N) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    x = Vh.conj().swapaxes(-1, -2) @ (inv[..., None] * (U.conj().swapaxes(-1, -2) @ B))
    rank = kept.sum(axis=-1)
    cond = np.divide(s[..., 0], s[..., -1], out=np.full(s.shape[:-1], np.inf),
                     where=s[..., -1] > 0)
    ill = (rank == N) & (cond > COND_LIMIT)
    if ill.any():
        warnings.warn("least-squares system is ill-conditioned", IllConditioned)
    resid = np.linalg.norm(A @ x - B, axis=-2)
    if b.ndim < A.ndim:
        x, resid = x[..., 0], resid[..., 0]
    if A.ndim == 2:  # one system
        rank, cond, ill = int(rank), float(cond), bool(ill)
        resid = resid if b.ndim == 2 else float(resid)
    return LstsqReport(solution=x, residual_norm=resid, rank=rank, cond=cond,
                       ill_conditioned=ill)


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares min ||Ax - b||^2 s.t. x >= 0 via the
    Lawson-Hanson active-set method."""
    import scipy.optimize

    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    try:
        x, _ = scipy.optimize.nnls(A, b)
    except RuntimeError as exc:  # active-set iteration cap
        raise MaxIterations(str(exc)) from exc
    return x


def eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a square complex matrix: the (r,) eigenvalues
    ordered by (real, imag) and the (r, r) eigenvectors as unit-norm
    columns in the same order."""
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
    return vals, vecs / np.linalg.norm(vecs, axis=0, keepdims=True)


def eigvals(M: np.ndarray) -> np.ndarray:
    """The eigenvalues of a square complex matrix, unordered, from LAPACK's
    eigenvalues-only path: no eigenvectors are formed."""
    try:
        return np.linalg.eigvals(np.asarray(M, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _fd_jacobian(residual: Callable, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    J = np.empty((f0.size, x.size), dtype=f0.dtype)
    h_base = np.sqrt(np.finfo(float).eps)
    for i in range(x.size):
        h = h_base * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        J[:, i] = (residual(xp) - f0) / h
    return J


class Refined(np.ndarray):
    """The point ``nlls_refine`` returns: an array whose ``stop`` says why
    the refinement ended, one of

    - ``"gradient"``: every gradient entry is at most ``_GRAD_TOL``;
    - ``"step"``: an accepted step is below 1e-15 of the point's norm;
    - ``"floor"``: a rejected step's objective is within the rounding
      floor, ``_FLOOR_RTOL``, of the current one;
    - ``"no-descent"``: 30 dampings in a row were rejected above the floor;
    - ``"iterations"``: ``max_iters`` normal-equation evaluations ran out.
    """

    def __new__(cls, x, stop):
        out = np.asarray(x).view(cls)
        out.stop = stop
        return out

    def __array_finalize__(self, obj):
        self.stop = getattr(obj, "stop", None)


def nlls_refine(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    max_iters: int = 200,
    normal_equations: Callable[[np.ndarray, np.ndarray], tuple] | None = None,
) -> Refined:
    """Levenberg-Marquardt style damped Gauss-Newton minimization of
    ||residual(x)||^2.  A step is taken only when it lowers the objective,
    so the returned point never has a larger objective than x0.

    x keeps the dtype of x0.  A complex x needs a residual holomorphic in
    it; each step solves (J^H J + lambda I) step = -J^H f with the complex
    Jacobian J, the realified [Re; Im] step at half the size (Sorber, Van
    Barel & De Lathauwer 2012).  ``normal_equations(x, f)`` returns J^H J
    and J^H f at x, where f = residual(x); a caller with a closed form for
    them never forms J.  The loop adds lambda to the diagonal of the J^H J
    it is handed, in place, and solves by Cholesky, by LU only when the
    Cholesky factorisation fails.  Without ``normal_equations``, J is
    taken by forward finite differences, one residual call per coordinate.

    Besides the gradient, step and iteration limits, the refinement ends
    at the objective's rounding floor: when a rejected step's objective
    exceeds the current one by at most ``_FLOOR_RTOL`` of it, no damping
    can show a decrease that rounding does not swamp.  The returned
    ``Refined`` point names the one of these that ended it in ``stop``.
    """
    if normal_equations is None:

        def normal_equations(x, f):
            J = _fd_jacobian(residual, x, f)
            return J.conj().T @ J, J.conj().T @ f

    x = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
    f = np.asarray(residual(x), dtype=x.dtype)
    cost = float(np.vdot(f, f).real)
    lam = 1e-3
    for _ in range(max_iters):
        JtJ, grad = normal_equations(x, f)
        if np.maximum(np.abs(grad.real), np.abs(grad.imag)).max() <= _GRAD_TOL:
            stop = "gradient"
            break
        diag = JtJ.diagonal().copy()
        stop = "no-descent"
        for _ in range(30):
            np.fill_diagonal(JtJ, diag + lam)
            try:
                step = _damped_solve(JtJ, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            f_new = np.asarray(residual(x_new), dtype=x.dtype)
            cost_new = float(np.vdot(f_new, f_new).real)
            if cost_new < cost:
                x, f, cost = x_new, f_new, cost_new
                lam = max(lam / 3.0, 1e-14)
                stop = None
                break
            if cost_new - cost <= _FLOOR_RTOL * cost:  # the rounding floor
                stop = "floor"
                break
            lam *= 4.0
        if stop is not None:
            break
        if np.linalg.norm(step) <= 1e-15 * (1.0 + np.linalg.norm(x)):
            stop = "step"
            break
    else:
        stop = "iterations"
    return Refined(x, stop)


def _damped_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b for the damped Hermitian system of ``nlls_refine``: by
    Cholesky (upper triangle), by LU when A is not numerically positive
    definite.  Raises LinAlgError when A is singular."""
    import scipy.linalg

    try:
        factor = scipy.linalg.cho_factor(A, check_finite=False)
    except np.linalg.LinAlgError:
        return np.linalg.solve(A, b)
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def simplex_nlls(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
    omega0: np.ndarray,
    mu0: np.ndarray,
    normal_equations: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||residual(omega, mu)||^2 with omega on the probability
    simplex, via the squared-variable reparameterization
    omega_i = t_i^2 / sum_j t_j^2 fed to ``nlls_refine`` at its defaults.

    ``normal_equations(omega, mu, f)`` returns J^T J and J^T f in
    (omega, mu), mu flattened row-major, at f = residual(omega, mu).  They
    are chained through the simplex map as K^T (J^T J) K and K^T (J^T f),
    K = blockdiag((I - omega 1^T) diag(2 t / sum_j t_j^2), I).  Without
    it, ``nlls_refine`` differences the residual.

    The returned omega is exactly renormalized onto the simplex, a
    ``Refined`` array carrying the ``stop`` of ``nlls_refine``.
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

    chained = None
    if normal_equations is not None:

        def chained(x, f):
            t = x[:r]
            s = t @ t
            w, mu = unpack(x)
            H, g = normal_equations(w, mu, f)
            # the uniform fallback of ``unpack`` does not move with t
            K = (np.eye(r) - w[:, None]) * (2.0 * t / s) if s > 0 else np.zeros((r, r))
            H[:r] = K.T @ H[:r]
            H[:, :r] = H[:, :r] @ K
            g[:r] = K.T @ g[:r]
            return H, g

    x0 = np.concatenate([np.sqrt(omega0), mu0.ravel()])
    x_star = nlls_refine(wrapped, x0, normal_equations=chained)
    omega, mu = unpack(np.asarray(x_star))
    return Refined(omega / omega.sum(), getattr(x_star, "stop", None)), mu

"""Numerical kernels: least squares, NNLS, eigenpairs, refinement, RNG."""

import numpy as np
import pytest

from momentmix.numerics import (
    eig,
    gaussian_vector,
    lstsq,
    nlls_refine,
    nnls,
    rng_from,
    simplex_nlls,
)


def test_lstsq_mean():
    rep = lstsq(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert rep.solution == pytest.approx([2.0])


def test_lstsq_complex_identity():
    rep = lstsq(np.eye(2, dtype=complex), np.array([1j, 1.0]))
    assert np.allclose(rep.solution, [1j, 1.0])


def test_lstsq_min_norm():
    rep = lstsq(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(rep.solution, [1.0, 1.0])


def test_lstsq_normal_equations_residual():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rep = lstsq(A, b)
        grad = A.conj().T @ (A @ rep.solution - b)
        assert np.linalg.norm(grad) <= 1e-10 * np.linalg.norm(A) * np.linalg.norm(b)


def test_lstsq_residual_norm_per_column():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    B = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    rep = lstsq(A, B)
    assert rep.residual_norm.shape == (4,)
    for c in range(4):
        col = lstsq(A, B[:, c])
        assert isinstance(col.residual_norm, float)
        assert rep.residual_norm[c] == pytest.approx(col.residual_norm, rel=1e-12)


def test_nnls_values():
    assert nnls(np.eye(2), np.array([1.0, -1.0])) == pytest.approx([1.0, 0.0])
    assert nnls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0])) == pytest.approx([2.0])
    assert nnls(np.eye(2), np.zeros(2)) == pytest.approx([0.0, 0.0])


def test_nnls_kkt():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        x = nnls(A, b)
        grad = A.T @ (A @ x - b)
        assert np.all(x >= 0)
        assert np.all(grad >= -1e-8)
        assert np.max(np.abs(x * grad)) <= 1e-8


def test_eig_values():
    pairs = eig(np.diag([2.0, 5.0]).astype(complex))
    assert np.allclose(pairs.values, [2.0, 5.0])
    assert np.allclose(np.abs(pairs.vectors), np.eye(2))
    pairs = eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(pairs.values, [-1.0, 1.0])
    pairs = eig(np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(sorted(pairs.values, key=lambda z: z.imag), [-1j, 1j])


def test_eig_residual_random():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    pairs = eig(M)
    for i in range(20):
        v = pairs.vectors[:, i]
        assert np.linalg.norm(v) == pytest.approx(1.0)
        res = np.linalg.norm(M @ v - pairs.values[i] * v)
        assert res <= 1e-10 * np.linalg.norm(M)


def test_nlls_fixed_point():
    x = nlls_refine(lambda x: x - 3.0, np.array([3.0]))
    assert x == pytest.approx([3.0])


def test_nlls_linear():
    x = nlls_refine(lambda x: x - 3.0, np.array([0.0]))
    assert x == pytest.approx([3.0], abs=1e-8)


def test_nlls_monotone_on_random_quartics():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(3)
        x0 = rng.standard_normal(3)

        def residual(x):
            return x**2 - c

        before = np.linalg.norm(residual(x0)) ** 2
        x = nlls_refine(residual, x0, max_iters=30)
        after = np.linalg.norm(residual(x)) ** 2
        assert after <= before + 1e-12


def test_nlls_normal_equations_monotone_on_random_quartics():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(3)
        x0 = rng.standard_normal(3)

        def residual(x):
            return x**2 - c

        def normal_equations(x, f):
            J = np.diag(2.0 * x)
            return J.T @ J, J.T @ f

        before = np.linalg.norm(residual(x0)) ** 2
        x = nlls_refine(residual, x0, max_iters=30, normal_equations=normal_equations)
        after = np.linalg.norm(residual(x)) ** 2
        assert after <= before + 1e-12


def test_simplex_nlls_r1():
    omega, mu = simplex_nlls(
        lambda w, m: (m - 2.0).ravel(), np.array([1.0]), np.array([[0.0]])
    )
    assert omega == pytest.approx([1.0])
    assert mu.ravel() == pytest.approx([2.0], abs=1e-6)


def test_simplex_nlls_stays_on_simplex():
    rng = np.random.default_rng(9)
    target = np.array([0.2, 0.3, 0.5])

    def residual(w, m):
        return np.concatenate([(w - target), (m - 1.0).ravel()])

    w0 = np.array([0.4, 0.4, 0.2])
    m0 = rng.standard_normal((3, 2))
    w, m = simplex_nlls(residual, w0, m0)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w >= 0)
    assert w == pytest.approx(target, abs=1e-6)


def test_gaussian_vector_determinism():
    a = gaussian_vector(5, 10, "x")
    b = gaussian_vector(5, 10, "x")
    c = gaussian_vector(6, 10, "x")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_vector_mean():
    v = gaussian_vector(12, 1_000_000, "large")
    assert abs(v.mean()) < 5e-3


def test_rng_streams_independent():
    a = rng_from(1, "s1").standard_normal(4)
    b = rng_from(1, "s2").standard_normal(4)
    assert not np.array_equal(a, b)

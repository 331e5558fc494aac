"""Numerical kernels: least squares, NNLS, eigenpairs, refinement, RNG."""

import warnings

import numpy as np
import pytest

from momentmix.errors import IllConditioned
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


def test_lstsq_full_rank_ill_conditioned_warns():
    A = np.diag([1.0, 1e-13])
    with pytest.warns(IllConditioned):
        rep = lstsq(A, np.ones(2))
    assert rep.rank == 2 and rep.ill_conditioned


def test_lstsq_rank_deficient_reports_rank_without_warning():
    A = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = lstsq(A, np.array([1.0, 2.0, 3.0]))
    assert rep.rank == 1 and not rep.ill_conditioned


def lstsq_stack(rng, dtype):
    """Four 9 x 4 systems: two of full rank, one of rank 2 and an all-zero
    one."""
    def draw(*shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if dtype is complex else out

    A = draw(4, 9, 4)
    A[2] = draw(9, 2) @ draw(2, 4)
    A[3] = 0.0
    return A


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("rhs", [(), (3,)])
def test_stacked_lstsq_matches_per_system_numpy(dtype, rhs):
    rng = np.random.default_rng(13)
    A = lstsq_stack(rng, dtype)
    B = rng.standard_normal((4, 9) + rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = lstsq(A, B)
    assert rep.solution.shape == (4, 4) + rhs
    assert rep.residual_norm.shape == (4,) + rhs
    assert not np.isnan(rep.solution).any() and not np.isnan(rep.residual_norm).any()
    assert rep.rank.tolist() == [4, 4, 2, 0]
    assert not rep.ill_conditioned.any()
    for t in range(4):
        x, _, rank, _ = np.linalg.lstsq(A[t], B[t], rcond=None)
        resid = np.linalg.norm(A[t] @ x - B[t], axis=0)
        assert rep.rank[t] == rank
        scale = np.linalg.norm(x) or 1.0  # the zero system has x = 0
        assert np.linalg.norm(rep.solution[t] - x) <= 1e-12 * scale
        assert np.all(np.abs(rep.residual_norm[t] - resid) <= 1e-12 * resid)
        one = lstsq(A[t], B[t])  # the 2-D call's report
        assert one.rank == rank and isinstance(one.rank, int)
        assert np.linalg.norm(one.solution - x) <= 1e-12 * scale
    assert np.array_equal(rep.solution[3], np.zeros((4,) + rhs))


def test_stacked_lstsq_warns_once_for_ill_conditioned_members():
    rng = np.random.default_rng(14)
    ill = np.zeros((2, 9, 4))
    ill[:, :4] = np.diag([1.0, 1.0, 1.0, 1e-13])  # full rank, condition 1e13
    A = np.concatenate([lstsq_stack(rng, complex), ill])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = lstsq(A, np.ones((6, 9)))
    assert [w.category for w in caught] == [IllConditioned]
    assert rep.ill_conditioned.tolist() == [False, False, False, False, True, True]
    assert rep.rank.tolist() == [4, 4, 2, 0, 4, 4]


def test_lstsq_reports_condition_numbers():
    rng = np.random.default_rng(15)
    A = lstsq_stack(rng, complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditioned)
        rep = lstsq(A, np.ones((4, 9)))
        one = lstsq(A[0], np.ones(9))
    for t in (0, 1):
        assert rep.cond[t] == pytest.approx(np.linalg.cond(A[t]), rel=1e-12)
    assert isinstance(one.cond, float)
    assert one.cond == pytest.approx(rep.cond[0], rel=1e-12)
    assert rep.cond[2] > 1e12 and rep.cond[3] == np.inf  # rank 2 and all zero
    with pytest.warns(IllConditioned):
        assert lstsq(np.diag([1.0, 1e-13]), np.ones(2)).cond == pytest.approx(1e13)


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
    values, vectors = eig(np.diag([2.0, 5.0]).astype(complex))
    assert np.allclose(values, [2.0, 5.0])
    assert np.allclose(np.abs(vectors), np.eye(2))
    values, _ = eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(values, [-1.0, 1.0])
    values, _ = eig(np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(sorted(values, key=lambda z: z.imag), [-1j, 1j])


def test_eig_residual_random():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    values, vectors = eig(M)
    for i in range(20):
        v = vectors[:, i]
        assert np.linalg.norm(v) == pytest.approx(1.0)
        res = np.linalg.norm(M @ v - values[i] * v)
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


@pytest.mark.parametrize("analytic", [False, True], ids=["differences", "normal-equations"])
def test_nlls_complex_square_roots(analytic):
    # z**2 - c is holomorphic, so the complex step reaches a root
    rng = np.random.default_rng(6)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z0 = np.sqrt(c) + 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))

    def normal_equations(z, f):
        J = np.diag(2.0 * z)
        return J.conj().T @ J, J.conj().T @ f

    z = nlls_refine(
        lambda z: z**2 - c, z0, normal_equations=normal_equations if analytic else None
    )
    assert z.dtype == complex
    assert np.abs(z**2 - c).max() <= 1e-8


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


def test_nlls_stops_at_the_rounding_floor():
    # A linear least squares scaled so that its gradient at the minimum,
    # rounding error times |J| |f|, stays far above the gradient tolerance:
    # one step reaches the minimum, and every later objective differs from
    # it by rounding only.  The refinement must end there, not try every
    # damping on steps that rounding decides.
    rng = np.random.default_rng(7)
    A = rng.standard_normal((200, 4))
    b = rng.standard_normal(200)
    J = 1e6 * A
    costs = []

    def residual(x):
        f = 1e6 * (A @ x - b)
        costs.append(float(f @ f))
        return f

    x = nlls_refine(residual, np.zeros(4), normal_equations=lambda x, f: (J.T @ J, J.T @ f))
    accepted = [i for i, cost in enumerate(costs) if cost < min(costs[:i], default=np.inf)]
    assert len(costs) - 1 - accepted[-1] <= 3
    assert np.allclose(x, np.linalg.lstsq(A, b, rcond=None)[0], rtol=1e-10, atol=1e-12)


def test_nlls_names_why_it_stopped():
    # at the minimum the gradient is zero
    assert nlls_refine(lambda x: x - 3.0, np.array([3.0])).stop == "gradient"
    # the cap, before and after one normal-equation evaluation
    assert nlls_refine(lambda x: x - 3.0, np.array([0.0]), max_iters=0).stop == "iterations"
    quartic = nlls_refine(lambda x: x**4 - 2.0, np.array([5.0]), max_iters=1)
    assert quartic.stop == "iterations" and quartic[0] < 5.0
    # a cliff off the start: every damping's objective is far above the floor
    cliff = nlls_refine(lambda x: np.where(x == 0.0, 1.0, 1e100), np.array([0.0]),
                        normal_equations=lambda x, f: (np.eye(1), f))
    assert cliff.stop == "no-descent" and cliff[0] == 0.0
    # one unit in the last place from the minimum: a gradient of 1e-8, and
    # an accepted step below 1e-15 of the point
    last_place = nlls_refine(lambda x: 10.0 * (x - 1e6), np.array([np.nextafter(1e6, 2e6)]))
    assert last_place.stop == "step" and last_place[0] == 1e6


def test_nlls_rounding_floor_is_named():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((200, 4))
    b = rng.standard_normal(200)
    J = 1e6 * A
    x = nlls_refine(lambda x: 1e6 * (A @ x - b), np.zeros(4),
                    normal_equations=lambda x, f: (J.T @ J, J.T @ f))
    assert x.stop == "floor"


def test_simplex_nlls_weights_carry_the_stop():
    target = np.array([0.3, 0.7, 1.0, 2.0])

    def residual(omega, mu):
        return np.concatenate([omega, mu[:, 0]]) - target

    omega, _ = simplex_nlls(residual, np.array([0.5, 0.5]), np.zeros((2, 1)))
    assert omega.stop in {"gradient", "step", "floor", "no-descent", "iterations"}
    assert omega.sum() == pytest.approx(1.0)
